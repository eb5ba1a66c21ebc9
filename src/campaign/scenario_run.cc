#include "campaign/scenario_run.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "campaign/aggregate.hh"
#include "campaign/checkpoint.hh"
#include "campaign/progress.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "sim/logging.hh"

namespace corona::campaign {

namespace {

/** An open-for-write file sink owned for the duration of the run. */
struct FileSink
{
    std::ofstream stream;
    std::unique_ptr<ResultSink> sink;
    const char *what = "";
};

enum class FileSinkKind
{
    Csv,
    Summary,
};

std::unique_ptr<FileSink>
openFileSink(const std::string &path, FileSinkKind kind,
             const char *what)
{
    if (path.empty())
        return nullptr;
    auto file = std::make_unique<FileSink>();
    file->what = what;
    file->stream.open(path, std::ios::trunc);
    if (!file->stream)
        sim::fatal(std::string(what) + ": cannot open \"" + path +
                   "\" for writing");
    switch (kind) {
      case FileSinkKind::Csv:
        file->sink = std::make_unique<CsvSink>(file->stream);
        break;
      case FileSinkKind::Summary:
        file->sink = std::make_unique<SummarySink>(&file->stream);
        break;
    }
    return file;
}

void
checkWritten(FileSink *file)
{
    if (!file)
        return;
    file->stream.flush();
    if (!file->stream)
        sim::fatal(std::string(file->what) +
                   ": write error, results file is incomplete");
}

} // namespace

void
ScenarioObsSetup::apply(const obs::CampaignObsOptions &observability,
                        const std::string &scenario_name,
                        RunnerOptions &options)
{
    if (!observability.enabled())
        return;
    // Observability outputs live under the scenario's obs dir: per-run
    // files are named by run index, beside the campaign's rollup.csv.
    std::error_code ec;
    std::filesystem::create_directories(observability.dir, ec);
    if (ec)
        sim::fatal("scenario \"" + scenario_name +
                   "\": cannot create observability dir \"" +
                   observability.dir + "\": " + ec.message());
    options.observability = observability;
}

ScenarioRunResult
runScenario(const ScenarioSpec &scenario,
            const ScenarioRunOptions &options)
{
    const ScenarioExecution &exec = scenario.execution;
    const CampaignSpec spec = scenario.resolve();

    ProgressReporter progress(std::cerr);
    RunnerOptions runner_options;
    runner_options.threads = exec.threads;
    if (!options.quiet && exec.progress)
        runner_options.progress = &progress;

    ScenarioObsSetup obs_setup;
    obs_setup.apply(scenario.observability, scenario.name,
                    runner_options);

    CampaignRunner runner(runner_options);
    const auto csv =
        openFileSink(exec.csv, FileSinkKind::Csv, "scenario csv sink");
    if (csv)
        runner.addSink(*csv->sink);
    const auto summary = openFileSink(
        exec.summary, FileSinkKind::Summary, "scenario summary sink");
    if (summary)
        runner.addSink(*summary->sink);
    std::unique_ptr<CheckpointFile> checkpoint;
    if (!exec.checkpoint.empty()) {
        checkpoint =
            std::make_unique<CheckpointFile>(exec.checkpoint, spec);
        runner.addSink(checkpoint->sink());
    }

    std::vector<RunRecord> records =
        runner.run(spec, checkpoint ? checkpoint->takeCompleted()
                                    : std::vector<RunRecord>{});

    checkWritten(csv.get());
    checkWritten(summary.get());
    if (checkpoint)
        checkpoint->checkWritten();

    return ScenarioRunResult{spec, std::move(records)};
}

} // namespace corona::campaign

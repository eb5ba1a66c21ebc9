#include "model/calibration.hh"

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "campaign/checkpoint.hh"
#include "campaign/runner.hh"
#include "campaign/sink.hh"
#include "corona/knobs.hh"
#include "sim/logging.hh"

namespace corona::model {

namespace {

/** Geometric-mean accumulator for scale ratios. */
struct RatioMean
{
    double log_bw = 0.0;
    double log_lat = 0.0;
    std::size_t n = 0;

    /** Fold in @p count samples of one ratio pair at once. */
    void add(double bw_ratio, double lat_ratio, std::size_t count = 1)
    {
        log_bw += static_cast<double>(count) * std::log(bw_ratio);
        log_lat += static_cast<double>(count) * std::log(lat_ratio);
        n += count;
    }

    CalibrationFactors factors() const
    {
        CalibrationFactors f;
        if (n > 0) {
            f.bandwidth_scale =
                std::exp(log_bw / static_cast<double>(n));
            f.latency_scale =
                std::exp(log_lat / static_cast<double>(n));
            f.samples = n;
        }
        return f;
    }
};

constexpr const char *calibrationMagic =
    "# corona-model-calibration v1";

} // namespace

std::string
Calibration::cellKey(const std::string &config,
                     const std::string &workload)
{
    return config + "|" + workload;
}

void
Calibration::fit(const campaign::CampaignSpec &spec,
                 const std::vector<campaign::RunRecord> &simulated,
                 const AnalyticModel &model)
{
    std::map<std::string, RatioMean> cells;
    std::map<std::string, RatioMean> configs;
    RatioMean global;

    for (const auto &record : simulated) {
        if (!record.ok)
            continue;
        if (record.config_index >= spec.configs.size())
            sim::fatal("Calibration::fit: record config index " +
                       std::to_string(record.config_index) +
                       " outside the spec's config axis");
        const core::SystemConfig &config =
            spec.configs[record.config_index];
        const DesignPoint point = fromConfig(config, record.workload);
        const Prediction raw = model.evaluate(point);
        if (raw.achieved_bytes_per_second <= 0.0 ||
            raw.avg_latency_ns <= 0.0)
            continue;
        const double bw_ratio =
            record.metrics.achieved_bytes_per_second /
            raw.achieved_bytes_per_second;
        const double lat_ratio =
            record.metrics.avg_latency_ns / raw.avg_latency_ns;
        if (!(bw_ratio > 0.0) || !(lat_ratio > 0.0))
            continue; // Degenerate anchor (zero or NaN metrics).
        cells[cellKey(record.config, record.workload)].add(bw_ratio,
                                                           lat_ratio);
        configs[record.config].add(bw_ratio, lat_ratio);
        global.add(bw_ratio, lat_ratio);
    }

    _cells.clear();
    _configs.clear();
    for (const auto &[key, mean] : cells)
        _cells[key] = mean.factors();
    for (const auto &[key, mean] : configs)
        _configs[key] = mean.factors();
    _global = global.factors();
}

const CalibrationFactors &
Calibration::lookup(const std::string &config,
                    const std::string &workload) const
{
    if (const auto it = _cells.find(cellKey(config, workload));
        it != _cells.end())
        return it->second;
    if (const auto it = _configs.find(config); it != _configs.end())
        return it->second;
    if (_global.samples > 0)
        return _global;
    return _identity;
}

Prediction
Calibration::apply(const Prediction &raw, const std::string &config,
                   const std::string &workload) const
{
    const CalibrationFactors &f = lookup(config, workload);
    Prediction out = raw;
    out.achieved_bytes_per_second *= f.bandwidth_scale;
    out.avg_latency_ns *= f.latency_scale;
    out.p95_latency_ns *= f.latency_scale;
    return out;
}

std::vector<std::string>
Calibration::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(_cells.size());
    for (const auto &[key, factors] : _cells)
        keys.push_back(key);
    return keys;
}

void
Calibration::save(std::ostream &os) const
{
    os << calibrationMagic << "\n";
    os << "config,workload,bandwidth_scale,latency_scale,samples\n";
    for (const auto &[key, f] : _cells) {
        const auto sep = key.find('|');
        os << campaign::csvEscape(key.substr(0, sep)) << ","
           << campaign::csvEscape(key.substr(sep + 1)) << ","
           << campaign::formatShortestDouble(f.bandwidth_scale) << ","
           << campaign::formatShortestDouble(f.latency_scale) << ","
           << f.samples << "\n";
    }
}

Calibration
Calibration::load(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != calibrationMagic)
        sim::fatal("Calibration::load: missing \"" +
                   std::string(calibrationMagic) + "\" header");
    if (!std::getline(is, line))
        sim::fatal("Calibration::load: missing column header");

    Calibration calibration;
    std::map<std::string, RatioMean> configs;
    RatioMean global;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const auto fields = campaign::splitCsvRow(line);
        if (!fields || fields->size() != 5)
            sim::fatal("Calibration::load: malformed row \"" + line +
                       "\"");
        const auto bandwidth = core::parseStrictDouble((*fields)[2]);
        const auto latency = core::parseStrictDouble((*fields)[3]);
        const auto samples = core::parseUnsigned((*fields)[4]);
        if (!bandwidth || *bandwidth <= 0.0 || !latency ||
            *latency <= 0.0 || !samples)
            sim::fatal("Calibration::load: bad numbers in row \"" +
                       line + "\"");
        // The global tier holds every sample, so it overflows first.
        if (*samples > std::numeric_limits<std::size_t>::max() - global.n)
            sim::fatal("Calibration::load: sample count in row \"" +
                       line + "\" overflows the total");
        const CalibrationFactors f{*bandwidth, *latency, *samples};
        // save() writes each cell once. A second row for a cell would
        // replace the first there while both fed the fallback tiers.
        if (!calibration._cells
                 .emplace(cellKey((*fields)[0], (*fields)[1]), f)
                 .second)
            sim::fatal("Calibration::load: repeated cell in row \"" +
                       line + "\"");
        // Rebuild the fallback tiers from the per-cell rows so a
        // loaded calibration generalises exactly like a fitted one.
        configs[(*fields)[0]].add(f.bandwidth_scale, f.latency_scale,
                                  f.samples);
        global.add(f.bandwidth_scale, f.latency_scale, f.samples);
    }
    for (const auto &[key, mean] : configs)
        calibration._configs[key] = mean.factors();
    calibration._global = global.factors();
    return calibration;
}

Calibration
calibrateFromAnchor(const campaign::CampaignSpec &spec,
                    const CalibrateOptions &options,
                    const AnalyticModel &model)
{
    campaign::RunnerOptions runner_options;
    runner_options.threads = options.threads;
    campaign::ProgressReporter progress(options.log ? *options.log
                                                    : std::cerr);
    if (options.log)
        runner_options.progress = &progress;
    campaign::CampaignRunner runner(runner_options);

    std::unique_ptr<campaign::CheckpointFile> checkpoint;
    if (!options.checkpoint_path.empty()) {
        checkpoint = std::make_unique<campaign::CheckpointFile>(
            options.checkpoint_path, spec);
        runner.addSink(checkpoint->sink());
    }

    const std::vector<campaign::RunRecord> records = runner.run(
        spec, checkpoint ? checkpoint->takeCompleted()
                         : std::vector<campaign::RunRecord>{});
    if (checkpoint)
        checkpoint->checkWritten();

    Calibration calibration;
    calibration.fit(spec, records, model);
    return calibration;
}

} // namespace corona::model

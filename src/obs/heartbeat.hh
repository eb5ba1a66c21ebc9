/**
 * @file
 * obs::JsonObject, a one-line JSON object builder.
 *
 * The file keeps its old name because perfbench/bench_trace.cc
 * includes this path for JsonObject; it moves only together with a
 * change to the benchmark.
 */

#ifndef CORONA_OBS_HEARTBEAT_HH
#define CORONA_OBS_HEARTBEAT_HH

#include <cstdint>
#include <string>

namespace corona::obs {

/**
 * An append-only JSON object: field() calls build "{...}" in call
 * order. Strings are escaped; numbers use shortest round-trip form.
 */
class JsonObject
{
  public:
    JsonObject &field(const char *name, const std::string &value);
    JsonObject &field(const char *name, const char *value);
    JsonObject &field(const char *name, double value);
    JsonObject &field(const char *name, std::uint64_t value);
    JsonObject &field(const char *name, std::int64_t value);
    JsonObject &field(const char *name, int value);
    JsonObject &field(const char *name, unsigned value);
    JsonObject &field(const char *name, bool value);

    /** The completed object, braces included. */
    std::string str() const { return _body + "}"; }

  private:
    void key(const char *name);

    std::string _body = "{";
};

} // namespace corona::obs

#endif // CORONA_OBS_HEARTBEAT_HH

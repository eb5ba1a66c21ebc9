#include "obs/heartbeat.hh"

#include "obs/registry.hh"

namespace corona::obs {

namespace {

std::string
escapeJson(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
JsonObject::key(const char *name)
{
    if (_body.size() > 1)
        _body += ',';
    _body += '"';
    _body += name;
    _body += "\":";
}

JsonObject &
JsonObject::field(const char *name, const std::string &value)
{
    key(name);
    _body += '"';
    _body += escapeJson(value);
    _body += '"';
    return *this;
}

JsonObject &
JsonObject::field(const char *name, const char *value)
{
    return field(name, std::string(value));
}

JsonObject &
JsonObject::field(const char *name, double value)
{
    key(name);
    _body += formatValue(value);
    return *this;
}

JsonObject &
JsonObject::field(const char *name, std::uint64_t value)
{
    key(name);
    _body += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::field(const char *name, std::int64_t value)
{
    key(name);
    _body += std::to_string(value);
    return *this;
}

JsonObject &
JsonObject::field(const char *name, int value)
{
    return field(name, static_cast<std::int64_t>(value));
}

JsonObject &
JsonObject::field(const char *name, unsigned value)
{
    return field(name, static_cast<std::uint64_t>(value));
}

JsonObject &
JsonObject::field(const char *name, bool value)
{
    key(name);
    _body += value ? "true" : "false";
    return *this;
}

} // namespace corona::obs

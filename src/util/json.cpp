#include "util/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace fastgl {
namespace util {

void
JsonWriter::newline()
{
    if (layout_ == Layout::kIndented) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
}

void
JsonWriter::separate(bool is_key)
{
    FASTGL_CHECK(!stack_.empty() && stack_.back().first == is_key,
                 is_key ? "JSON key outside an object"
                        : "JSON object member needs a key");
    if (!stack_.back().second)
        out_ += ',';
    stack_.back().second = false;
    newline();
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    FASTGL_CHECK(!after_key_, "JSON key without a value");
    separate(true);
    quote(name);
    out_ += layout_ == Layout::kCompact ? ":" : ": ";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view text)
{
    if (after_key_)
        after_key_ = false;
    else if (!stack_.empty())
        separate(false);
    out_ += text;
    return *this;
}

JsonWriter &
JsonWriter::open(char bracket, bool object)
{
    raw(std::string_view(&bracket, 1));
    stack_.emplace_back(object, true);
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket, bool object)
{
    FASTGL_CHECK(!stack_.empty() && stack_.back().first == object &&
                     !after_key_,
                 "unbalanced JSON container");
    const bool empty = stack_.back().second;
    stack_.pop_back();
    if (!empty)
        newline();
    out_ += bracket;
    return *this;
}

void
JsonWriter::quote(std::string_view s)
{
    out_ += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    raw("");
    quote(s);
    return *this;
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    if (!std::isfinite(v))
        return raw("null");
    const int n = std::snprintf(nullptr, 0, "%.*f", decimals, v);
    std::string s(static_cast<size_t>(n), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*f", decimals, v);
    return raw(s);
}

JsonWriter &
JsonWriter::general(double v, int digits)
{
    if (!std::isfinite(v))
        return raw("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*g", std::min(digits, 17), v);
    return raw(buf);
}

JsonWriter &
JsonWriter::hash(uint64_t h, std::string_view prefix)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return string(std::string(prefix) + buf);
}

} // namespace util
} // namespace fastgl

/**
 * @file
 * The one JSON writer behind every machine-readable export: the profiler
 * report, the chrome trace and the bench archives. Commas, quoting and
 * escaping live here only, so no value can break the document around it.
 */
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fastgl {
namespace util {

/**
 * Streaming JSON writer: open containers with begin_object() /
 * begin_array(), name each object member with key(), close what was
 * opened. Commas are placed automatically.
 */
class JsonWriter
{
  public:
    /** kCompact: no whitespace (`{"k":1}`). kIndented: one member per
     *  line, two spaces per level, `"key": value`. */
    enum class Layout { kCompact, kIndented };

    explicit JsonWriter(Layout layout = Layout::kIndented)
        : layout_(layout)
    {
    }

    JsonWriter &begin_object() { return open('{', true); }
    JsonWriter &end_object() { return close('}', true); }
    JsonWriter &begin_array() { return open('[', false); }
    JsonWriter &end_array() { return close(']', false); }

    /** Name the next value; valid only directly inside an object. */
    JsonWriter &key(std::string_view name);

    /** A string, with `"`, `\` and control characters escaped. */
    JsonWriter &string(std::string_view s);
    JsonWriter &boolean(bool b) { return raw(b ? "true" : "false"); }

    template <std::integral T>
    JsonWriter &
    integer(T v)
    {
        return raw(std::to_string(v));
    }

    /** @p v with @p decimals decimals (`%.*f`); null if non-finite. */
    JsonWriter &fixed(double v, int decimals);

    /** @p v with @p digits significant digits (`%.*g`, at most 17; 17
     *  round-trips every double); null if non-finite. */
    JsonWriter &general(double v, int digits = 17);

    /** A 64-bit digest as the string `<prefix>%016llx`. */
    JsonWriter &hash(uint64_t h, std::string_view prefix = "0x");

    /** The document so far (complete once every container closed). */
    const std::string &str() const { return out_; }

  private:
    /** Comma and indentation before the next member of the open
     *  container: an object key when @p is_key, else an array value. */
    void separate(bool is_key);
    JsonWriter &raw(std::string_view text);
    JsonWriter &open(char bracket, bool object);
    JsonWriter &close(char bracket, bool object);
    void quote(std::string_view s);
    void newline();

    Layout layout_;
    std::string out_;
    /** One entry per open container: {is an object, still empty}. */
    std::vector<std::pair<bool, bool>> stack_;
    bool after_key_ = false;
};

} // namespace util
} // namespace fastgl

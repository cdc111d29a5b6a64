/**
 * @file
 * Strict RFC 8259 reader for the exporter tests: it checks that a text
 * is exactly one JSON value and decodes every string it meets, so a
 * test can assert both "this parses" and "this name came back intact".
 */
#pragma once

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace fastgl {
namespace testing_json {

class Reader
{
  public:
    explicit Reader(std::string_view text) : s_(text) {}

    /** True iff the whole text is exactly one JSON value. */
    bool parse() { return value() && (ws(), i_ == s_.size()); }

    /** Every string (keys included) decoded, in document order. */
    const std::vector<std::string> &strings() const { return strings_; }

  private:
    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

    void
    ws()
    {
        while (peek() == ' ' || peek() == '\n' || peek() == '\t' ||
               peek() == '\r')
            ++i_;
    }

    bool take(char c) { return peek() == c && ++i_; }

    bool
    eat(char c)
    {
        ws();
        return take(c);
    }

    bool
    digits()
    {
        const size_t start = i_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++i_;
        return i_ > start;
    }

    bool
    number()
    {
        take('-');
        if (!take('0') && !digits())
            return false;
        if (take('.') && !digits())
            return false;
        if (take('e') || take('E')) {
            if (!take('+'))
                take('-');
            return digits();
        }
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        std::string out;
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"') {
                strings_.push_back(std::move(out));
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            const size_t esc = std::string_view("\"\\/bfnrt").find(peek());
            if (esc != std::string_view::npos) {
                out += "\"\\/\b\f\n\r\t"[esc];
                ++i_;
            } else if (peek() == 'u' && i_ + 5 <= s_.size()) {
                // Decodes the ASCII range, all the writer emits.
                const std::string hex(s_.substr(i_ + 1, 4));
                if (hex.find_first_not_of("0123456789abcdefABCDEF") !=
                        std::string::npos ||
                    std::stoul(hex, nullptr, 16) > 0x7F)
                    return false;
                out += static_cast<char>(std::stoul(hex, nullptr, 16));
                i_ += 5;
            } else {
                return false;
            }
        }
        return false;
    }

    template <typename Member>
    bool
    members(char close, Member member)
    {
        if (eat(close))
            return true;
        do {
            if (!member())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    value()
    {
        ws();
        if (eat('{'))
            return members('}', [this] {
                return string() && eat(':') && value();
            });
        if (eat('['))
            return members(']', [this] { return value(); });
        if (peek() == '"')
            return string();
        for (std::string_view word : {"true", "false", "null"}) {
            if (s_.substr(i_, word.size()) == word) {
                i_ += word.size();
                return true;
            }
        }
        return number();
    }

    std::string_view s_;
    size_t i_ = 0;
    std::vector<std::string> strings_;
};

/** True iff @p text is one well-formed JSON value. */
inline bool
valid(std::string_view text)
{
    return Reader(text).parse();
}

} // namespace testing_json
} // namespace fastgl

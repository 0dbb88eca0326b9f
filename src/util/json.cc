#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/logging.h"

namespace vtrain {
namespace json {

// ------------------------------------------------------------ accessors

bool
Value::asBool() const
{
    VTRAIN_CHECK(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    VTRAIN_CHECK(type_ == Type::Number, "JSON value is not a number");
    return number_;
}

/** Largest double magnitude that still represents integers exactly. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53

int64_t
Value::asInt64() const
{
    const double d = asNumber();
    VTRAIN_CHECK(std::nearbyint(d) == d, "JSON number ", d,
                 " is not an integer");
    VTRAIN_CHECK(d >= -kMaxExactInt && d <= kMaxExactInt,
                 "JSON number ", d, " exceeds the exact integer range");
    return static_cast<int64_t>(d);
}

const std::string &
Value::asString() const
{
    VTRAIN_CHECK(type_ == Type::String, "JSON value is not a string");
    return string_;
}

const std::vector<Value> &
Value::items() const
{
    VTRAIN_CHECK(type_ == Type::Array, "JSON value is not an array");
    return array_;
}

void
Value::push(Value v)
{
    VTRAIN_CHECK(type_ == Type::Array, "JSON value is not an array");
    array_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    VTRAIN_CHECK(type_ == Type::Object, "JSON value is not an object");
    return object_;
}

void
Value::set(std::string key, Value v)
{
    VTRAIN_CHECK(type_ == Type::Object, "JSON value is not an object");
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    object_.emplace_back(std::move(key), std::move(v));
}

const Value *
Value::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

// --------------------------------------------------------------- dumping

namespace {

void
dumpString(const std::string &s, std::string &out)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                // %x consumes an unsigned int; a raw char is signed on
                // most ABIs and would be a format-type mismatch.
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
dumpNumber(double d, std::string &out)
{
    VTRAIN_CHECK(std::isfinite(d),
                 "JSON cannot represent non-finite numbers");
    // Shortest representation that parses back to the same double.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, res.ptr);
}

void
dumpValue(const Value &v, std::string &out)
{
    switch (v.type()) {
      case Value::Type::Null:
        out += "null";
        break;
      case Value::Type::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Value::Type::Number:
        dumpNumber(v.asNumber(), out);
        break;
      case Value::Type::String:
        dumpString(v.asString(), out);
        break;
      case Value::Type::Array: {
        const auto &items = v.items();
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            dumpValue(items[i], out);
        }
        out += ']';
        break;
      }
      case Value::Type::Object: {
        const auto &members = v.members();
        out += '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            dumpString(members[i].first, out);
            out += ':';
            dumpValue(members[i].second, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

std::string
Value::dump() const
{
    std::string out;
    dumpValue(*this, out);
    return out;
}

// --------------------------------------------------------------- parsing

namespace {

/** Recursive-descent parser over a complete document. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool parseDocument(Value *out)
    {
        skipWhitespace();
        if (!parseValue(out, 0))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool fail(const std::string &what)
    {
        if (error_) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    bool parseValue(Value *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Value(std::move(s));
            return true;
        }
        if (literal("true")) {
            *out = Value(true);
            return true;
        }
        if (literal("false")) {
            *out = Value(false);
            return true;
        }
        if (literal("null")) {
            *out = Value();
            return true;
        }
        return parseNumber(out);
    }

    bool parseObject(Value *out, int depth)
    {
        ++pos_; // '{'
        *out = Value::object();
        skipWhitespace();
        if (consume('}'))
            return true;
        for (;;) {
            skipWhitespace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(&key))
                return false;
            skipWhitespace();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWhitespace();
            Value member;
            if (!parseValue(&member, depth + 1))
                return false;
            out->set(std::move(key), std::move(member));
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool parseArray(Value *out, int depth)
    {
        ++pos_; // '['
        *out = Value::array();
        skipWhitespace();
        if (consume(']'))
            return true;
        for (;;) {
            skipWhitespace();
            Value item;
            if (!parseValue(&item, depth + 1))
                return false;
            out->push(std::move(item));
            skipWhitespace();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool parseString(std::string *out)
    {
        ++pos_; // '"'
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out->push_back(c);
                ++pos_;
                continue;
            }
            ++pos_; // '\'
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out->push_back('"');
                break;
              case '\\':
                out->push_back('\\');
                break;
              case '/':
                out->push_back('/');
                break;
              case 'b':
                out->push_back('\b');
                break;
              case 'f':
                out->push_back('\f');
                break;
              case 'n':
                out->push_back('\n');
                break;
              case 'r':
                out->push_back('\r');
                break;
              case 't':
                out->push_back('\t');
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(&cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // Surrogate pair: expect the low half next.
                    if (!literal("\\u"))
                        return fail("unpaired high surrogate");
                    unsigned low = 0;
                    if (!parseHex4(&low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    return fail("unpaired low surrogate");
                }
                appendUtf8(cp, out);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseHex4(unsigned *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("invalid hex digit in \\u escape");
        }
        pos_ += 4;
        *out = value;
        return true;
    }

    static void appendUtf8(unsigned cp, std::string *out)
    {
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    bool parseNumber(Value *out)
    {
        // Validate against the JSON number grammar first: from_chars
        // alone would also accept "inf", "nan" and hex floats.
        const size_t start = pos_;
        size_t p = pos_;
        auto digits = [&] {
            const size_t first = p;
            while (p < text_.size() && text_[p] >= '0' &&
                   text_[p] <= '9')
                ++p;
            return p > first;
        };
        if (p < text_.size() && text_[p] == '-')
            ++p;
        if (!digits())
            return fail("invalid number");
        if (p < text_.size() && text_[p] == '.') {
            ++p;
            if (!digits())
                return fail("invalid number");
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() &&
                (text_[p] == '+' || text_[p] == '-'))
                ++p;
            if (!digits())
                return fail("invalid number");
        }
        double value = 0.0;
        const auto res = std::from_chars(text_.data() + start,
                                         text_.data() + p, value);
        if (res.ec != std::errc{})
            return fail("number out of range");
        pos_ = p;
        *out = Value(value);
        return true;
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

bool
Value::parse(std::string_view text, Value *out, std::string *error)
{
    Parser parser(text, error);
    return parser.parseDocument(out);
}

} // namespace json
} // namespace vtrain

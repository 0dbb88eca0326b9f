/**
 * @file
 * Minimal dependency-free JSON document type.
 *
 * The one JSON writer (and reader) of the library: the serve layer's
 * wire schemas (serve/wire.h), the HTTP error envelope
 * (net::jsonErrorBody) and the /tracez export (util::chromeTraceJson)
 * all build a json::Value and dump() it, so string escaping and number
 * formatting live only in json.cc.  The parser is a strict recursive
 * descent.  Doubles are emitted in shortest round-trip form, so
 * parse(dump(x)) == x holds bit-for-bit — the property the versioned
 * wire schemas rely on for bit-identical cross-process results.  This
 * header is only the document type; every wire schema lives in
 * serve/wire.h.
 */
#ifndef VTRAIN_UTIL_JSON_H
#define VTRAIN_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vtrain {
namespace json {

/** A parsed JSON document node (null/bool/number/string/array/object). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() = default;
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(double d) : type_(Type::Number), number_(d) {}
    Value(int64_t i)
        : type_(Type::Number), number_(static_cast<double>(i))
    {
    }
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Value(const char *s) : type_(Type::String), string_(s) {}

    static Value array() { return Value(Type::Array); }
    static Value object() { return Value(Type::Object); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Typed accessors; panic when the type does not match. */
    bool asBool() const;
    double asNumber() const;
    int64_t asInt64() const;
    const std::string &asString() const;

    /** Array access. */
    const std::vector<Value> &items() const;
    void push(Value v);

    /** Object access: members keep insertion order for stable dumps. */
    const std::vector<std::pair<std::string, Value>> &members() const;
    void set(std::string key, Value v);

    /** @return the member named `key`, or nullptr when absent. */
    const Value *find(std::string_view key) const;

    /** Serializes the value as compact JSON (no whitespace). */
    std::string dump() const;

    /**
     * Strict parse of a complete JSON document.  On failure returns
     * false and describes the problem (with offset) in *error.
     */
    static bool parse(std::string_view text, Value *out,
                      std::string *error);

  private:
    explicit Value(Type t) : type_(t) {}

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> object_;
};

} // namespace json
} // namespace vtrain

#endif // VTRAIN_UTIL_JSON_H

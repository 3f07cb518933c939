/**
 * @file
 * Minimal JSON document model and parser.
 *
 * Just enough JSON to read back the palermo-metrics-v1 documents this
 * repo's own tools emit: objects (insertion-ordered), arrays, strings,
 * doubles, booleans, null. Consumers are tools/perf_compare (baseline
 * diffing) and bench_sim_speed's --before import; neither needs
 * streaming, comments, or exotic escapes.
 */

#ifndef PALERMO_SIM_JSON_VALUE_HH
#define PALERMO_SIM_JSON_VALUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace palermo {

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /**
     * Parse a complete document. Returns false and fills *error with a
     * "line:col: message" diagnostic on malformed input; trailing
     * non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return boolean_; }
    double number() const { return number_; }
    const std::string &string() const { return string_; }
    const std::vector<JsonValue> &array() const { return array_; }

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return members_;
    }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Dotted-path lookup ("generator.tool"); nullptr when absent. */
    const JsonValue *at(const std::string &path) const;

  private:
    Kind kind_ = Kind::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    friend class JsonParser;
};

} // namespace palermo

#endif // PALERMO_SIM_JSON_VALUE_HH

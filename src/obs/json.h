/**
 * @file
 * Minimal streaming JSON writer used by the observability exporters
 * (Chrome trace files, bench result files). Emits compact, valid JSON
 * with deterministic number formatting — no dependency beyond the
 * standard library, because bench output must stay byte-identical
 * across runs.
 */

#ifndef PC_OBS_JSON_H
#define PC_OBS_JSON_H

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pc::obs {

/**
 * Stack-based JSON writer. The caller opens/closes objects and arrays
 * and the writer handles commas, key quoting and escaping. Misnesting
 * (closing the wrong scope, a value without a key inside an object)
 * trips an assertion.
 */
class JsonWriter
{
  public:
    /**
     * @param os Destination stream.
     * @param pretty Indent with newlines (for human-inspected files).
     */
    explicit JsonWriter(std::ostream &os, bool pretty = false);

    /** Open an object scope ("{"). */
    void beginObject();
    /** Close the innermost object scope. */
    void endObject();
    /** Open an array scope ("["). */
    void beginArray();
    /** Close the innermost array scope. */
    void endArray();

    /** Emit a key inside an object; the next emission is its value. */
    void key(std::string_view k);

    /** String value. */
    void value(std::string_view s);
    /** Disambiguate string literals from bool. */
    void value(const char *s) { value(std::string_view(s)); }
    /** Unsigned integer value. */
    void value(u64 v);
    /** Signed integer value. */
    void value(i64 v);
    /** Boolean value. */
    void value(bool b);
    /** Floating-point value; non-finite values emit null. */
    void value(double d);

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

    /** Escape a string for embedding in JSON (without quotes). */
    static std::string escape(std::string_view s);

  private:
    /** Scope bookkeeping: are we in an object/array, anything emitted? */
    struct Scope
    {
        bool object = false;
        bool first = true;
    };

    /** Comma/indent plumbing before any value or key. */
    void preValue();
    void indent();

    std::ostream &os_;
    bool pretty_;
    bool keyPending_ = false;
    std::vector<Scope> stack_;
};

} // namespace pc::obs

#endif // PC_OBS_JSON_H

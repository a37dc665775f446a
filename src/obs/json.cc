#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace pc::obs {

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : os_(os), pretty_(pretty)
{
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    os_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::preValue()
{
    if (stack_.empty())
        return;
    Scope &s = stack_.back();
    if (s.object && !keyPending_)
        pc_panic("JSON value inside an object needs a key first");
    if (!keyPending_) {
        if (!s.first)
            os_ << ',';
        s.first = false;
        indent();
    }
    keyPending_ = false;
}

void
JsonWriter::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Scope{true, true});
}

void
JsonWriter::endObject()
{
    pc_assert(!stack_.empty() && stack_.back().object,
              "endObject outside an object scope");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    os_ << '}';
}

void
JsonWriter::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Scope{false, true});
}

void
JsonWriter::endArray()
{
    pc_assert(!stack_.empty() && !stack_.back().object,
              "endArray outside an array scope");
    const bool empty = stack_.back().first;
    stack_.pop_back();
    if (!empty)
        indent();
    os_ << ']';
}

void
JsonWriter::key(std::string_view k)
{
    pc_assert(!stack_.empty() && stack_.back().object,
              "JSON key outside an object scope");
    pc_assert(!keyPending_, "two JSON keys in a row");
    Scope &s = stack_.back();
    if (!s.first)
        os_ << ',';
    s.first = false;
    indent();
    os_ << '"' << escape(k) << "\":";
    if (pretty_)
        os_ << ' ';
    keyPending_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    preValue();
    os_ << '"' << escape(s) << '"';
}

void
JsonWriter::value(u64 v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(i64 v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(bool b)
{
    preValue();
    os_ << (b ? "true" : "false");
}

void
JsonWriter::value(double d)
{
    preValue();
    if (!std::isfinite(d)) {
        os_ << "null";
        return;
    }
    // %.10g: enough digits for reporting fidelity, short and stable.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", d);
    os_ << buf;
}

} // namespace pc::obs

#include "workload/vocab.h"

#include "util/hash.h"
#include "util/logging.h"

namespace pc::workload {

namespace {

const char *const kOnsets[] = {
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
    "n", "p", "r", "s", "t", "v", "w", "z", "ch", "sh",
    "st", "br", "tr", "pl",
};
const char *const kVowels[] = {"a", "e", "i", "o", "u", "ai", "ou", "ee"};
const char *const kCodas[] = {"", "", "", "n", "r", "s", "t", "l", "m", "x"};

constexpr u64 kNumOnsets = sizeof(kOnsets) / sizeof(kOnsets[0]);
constexpr u64 kNumVowels = sizeof(kVowels) / sizeof(kVowels[0]);
constexpr u64 kNumCodas = sizeof(kCodas) / sizeof(kCodas[0]);

/** Append one syllable keyed by a hash state. */
void
appendSyllable(std::string &out, u64 &state)
{
    state = mix64(state);
    out += kOnsets[state % kNumOnsets];
    state = mix64(state + 1);
    out += kVowels[state % kNumVowels];
    state = mix64(state + 2);
    out += kCodas[state % kNumCodas];
}

/** Append Vocabulary::word(index) to `out`. */
void
appendWord(std::string &out, u64 index)
{
    u64 state = mix64(index ^ 0x5bd1e995u);
    const u64 syllables = 2 + (mix64(state + 7) % 3); // 2..4
    for (u64 i = 0; i < syllables; ++i)
        appendSyllable(out, state);
}

} // namespace

std::string
Vocabulary::word(u64 index)
{
    std::string w;
    appendWord(w, index);
    return w;
}

std::string
Vocabulary::domainToken(u64 index)
{
    std::string w;
    appendWord(w, index ^ 0x00d00a17ull);
    // Occasionally append a short numeric/short suffix, as real brands do.
    const u64 h = mix64(index + 0x9137);
    if (h % 7 == 0)
        w += char('0' + int(h % 10));
    return w;
}

std::string
Vocabulary::topicPhrase(u64 index, u64 pool_size)
{
    pc_assert(pool_size >= 2, "topic pool too small");
    u64 state = mix64(index ^ 0x7091cull);
    const u64 words = 1 + state % 3; // 1..3 words
    std::string phrase;
    for (u64 i = 0; i < words; ++i) {
        state = mix64(state + i + 1);
        if (i)
            phrase += ' ';
        appendWord(phrase, state % pool_size);
    }
    return phrase;
}

std::string
makeAlias(const std::string &canonical, AliasKind kind, u64 salt)
{
    if (canonical.size() < 4)
        return canonical + "x"; // degenerate; still a distinct string

    const u64 h = mix64(fnv1a(canonical) ^ salt);
    std::string out = canonical;

    switch (kind) {
      case AliasKind::Misspelling: {
        const std::size_t pos = 1 + std::size_t(h % (out.size() - 2));
        switch ((h >> 8) % 3) {
          case 0: // drop a character ("yotube")
            out.erase(pos, 1);
            break;
          case 1: // swap adjacent characters ("yuotube")
            std::swap(out[pos], out[pos + 1]);
            break;
          default: // double a character ("youttube")
            out.insert(pos, 1, out[pos]);
            break;
        }
        break;
      }
      case AliasKind::Shortcut: {
        // Initials of a multi-word phrase ("boa"), else a short prefix.
        std::string initials;
        bool word_start = true;
        for (char c : canonical) {
            if (c == ' ') {
                word_start = true;
            } else if (word_start) {
                initials += c;
                word_start = false;
            }
        }
        if (initials.size() >= 2) {
            out = initials;
        } else {
            out = canonical.substr(0, 3 + std::size_t(h % 2));
        }
        break;
      }
    }
    if (out == canonical)
        out += 's'; // aliases must differ from the canonical string
    return out;
}

} // namespace pc::workload

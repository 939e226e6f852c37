#ifndef FGLB_TESTS_TEXT_MUTATOR_H_
#define FGLB_TESTS_TEXT_MUTATOR_H_

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>

namespace fglb {

// One seeded mutant of `text` for the text-parser fuzz cases: one to
// three edits, each a byte flip, a deletion, an insertion (a byte of
// the spec grammars, "=,;@:.-" or a digit, or any byte), a duplicated
// span or a truncation.
inline std::string MutateText(std::string text, std::mt19937_64& rng) {
  static constexpr char kGrammar[] = "=,;@:.-0123456789";
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < edits; ++i) {
    const size_t at = rng() % (text.size() + 1);
    switch (rng() % 6) {
      case 0:
        if (!text.empty()) {
          text[rng() % text.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 1:
        text.erase(at, 1 + rng() % 4);
        break;
      case 2:
        text.insert(at, 1, kGrammar[rng() % (sizeof(kGrammar) - 1)]);
        break;
      case 3:
        text.insert(at, 1, static_cast<char>(rng() % 256));
        break;
      case 4:
        if (!text.empty()) {
          const size_t begin = rng() % text.size();
          const size_t length =
              1 + rng() % std::min<size_t>(16, text.size() - begin);
          text.insert(at, text.substr(begin, length));
        }
        break;
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

}  // namespace fglb

#endif  // FGLB_TESTS_TEXT_MUTATOR_H_

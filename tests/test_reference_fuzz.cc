// Fixed-seed differential fuzz of the fast path against the reference path
// (EngineOptions::reference). Thousands of hostile questions — random byte
// strings and mutated survey questions (numbers at double limits, "$-",
// invalid UTF-8, embedded NULs, tokens repeated up to kMaxQuestionBytes) —
// are answered once on each path; both must return the same status code
// and, when they answer, byte-identical CanonicalAskResultStrings.
//
// Inputs come from a fixed-seed xorshift64 generator, so every run replays
// the same inputs (GCC ships no libFuzzer). Sized to stay fast under the
// ASan+UBSan Debug build, which runs it in CI like every suite.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "datagen/world.h"
#include "eval/experiments.h"
#include "serve/concurrent_server.h"

namespace cqads {
namespace {

/// xorshift64: fixed seed, deterministic across platforms.
class XorShift {
 public:
  explicit XorShift(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  /// Uniform-ish index in [0, n); n > 0.
  std::size_t Below(std::size_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

constexpr const char* kHostileNumbers[] = {
    "1.7976931348623157e308", "-1.7976931348623157e308",
    "4.9e-324",               "2.2250738585072014e-308",
    "1e309",                  "-1e309",
    "-0",                     "0.0000000000000000000001",
    "9007199254740993",       "18446744073709551616",
    "nan",                    "inf",
    "$-",                     "$-5000",
    "-$5000",                 "$$9000",
    "5,000,000,000,000,000",  "00000000000000000000001",
};

constexpr const char* kInvalidUtf8[] = {
    "\xff", "\xc3\x28", "\xe2\x82", "\xf0\x28\x8c\xbc", "\xed\xa0\x80",
    "\xc0\xaf", "\x80\x80\x80",
};

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : text) {
    if (c == ' ') {
      if (!cur.empty()) tokens.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const auto& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

/// A random byte string: raw bytes, or printable soup, 0..96 bytes.
std::string RandomBytes(XorShift* rng) {
  const std::size_t n = rng->Below(97);
  const bool printable = rng->Below(2) == 0;
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out += printable ? static_cast<char>(' ' + rng->Below(95))
                     : static_cast<char>(rng->Next() & 0xff);
  }
  return out;
}

/// One to three mutations of a survey question, capped at
/// kMaxQuestionBytes (the serving layer refuses anything longer).
std::string Mutate(const std::string& question, XorShift* rng) {
  std::vector<std::string> tokens = SplitTokens(question);
  if (tokens.empty()) tokens.push_back("car");
  const std::size_t edits = 1 + rng->Below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng->Below(tokens.size());
    switch (rng->Below(5)) {
      case 0: {  // a number token at a double limit (or a bare "$-")
        const auto& num =
            kHostileNumbers[rng->Below(std::size(kHostileNumbers))];
        bool replaced = false;
        for (auto& t : tokens) {
          if (!t.empty() && (std::isdigit(static_cast<unsigned char>(t[0])) ||
                             t[0] == '$')) {
            t = num;
            replaced = true;
            break;
          }
        }
        if (!replaced) tokens.insert(tokens.begin() + at, num);
        break;
      }
      case 1:  // invalid UTF-8 inside or beside a token
        tokens[at].insert(rng->Below(tokens[at].size() + 1),
                          kInvalidUtf8[rng->Below(std::size(kInvalidUtf8))]);
        break;
      case 2:  // an embedded NUL
        tokens[at].insert(rng->Below(tokens[at].size() + 1), 1, '\0');
        break;
      case 3: {  // one token repeated: 1 in 32 up to the cap itself (an
                 // ask then carries ~150 units, and its N-1 relaxations
                 // cost quadratically), the rest to a short random length
        const std::string tok = tokens[at];
        const std::size_t target = rng->Below(32) == 0
                                       ? serve::kMaxQuestionBytes
                                       : 1 + rng->Below(256);
        std::string text = JoinTokens(tokens);
        while (text.size() + tok.size() + 1 <= target) text += ' ' + tok;
        tokens = SplitTokens(text);
        if (tokens.empty()) tokens.push_back(tok);
        break;
      }
      case 4:  // drop or duplicate a token
        if (tokens.size() > 1 && rng->Below(2) == 0) {
          tokens.erase(tokens.begin() + at);
        } else {
          tokens.insert(tokens.begin() + at, tokens[at]);
        }
        break;
    }
  }
  std::string out = JoinTokens(tokens);
  if (out.size() > serve::kMaxQuestionBytes) {
    out.resize(serve::kMaxQuestionBytes);
  }
  return out;
}

class ReferenceFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 200;
    options.corpus_docs_per_domain = 40;
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* ReferenceFuzzTest::world_ = nullptr;

/// One fuzz input: "" as domain means the full Ask (classify first).
struct Input {
  std::string domain;
  std::string text;
};

std::string Outcome(const Result<core::AskResult>& r) {
  if (!r.ok()) {
    return "status " + std::to_string(static_cast<int>(r.status().code()));
  }
  return core::CanonicalAskResultString(r.value());
}

TEST_F(ReferenceFuzzTest, FastAndReferenceAgreeOnHostileQuestions) {
  constexpr std::size_t kRandomInputs = 1000;
  constexpr std::size_t kMutatedInputs = 1400;

  XorShift rng(0xA4093822299F31D0ULL);
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < kRandomInputs; ++i) {
    inputs.push_back(Input{"", RandomBytes(&rng)});
  }
  std::vector<Input> survey;
  for (const auto& [domain, qs] :
       eval::GenerateSurveyQuestions(*world_, 40, 20, 4242)) {
    for (const auto& q : qs) survey.push_back(Input{domain, q.text});
  }
  ASSERT_FALSE(survey.empty());
  for (std::size_t i = 0; i < kMutatedInputs; ++i) {
    const Input& base = survey[rng.Below(survey.size())];
    // Every fourth mutated question goes through classification too.
    inputs.push_back(Input{i % 4 == 0 ? std::string() : base.domain,
                           Mutate(base.text, &rng)});
  }

  core::CqadsEngine& engine = world_->mutable_engine();
  auto answer_all = [&] {
    std::vector<std::string> out;
    out.reserve(inputs.size());
    for (const auto& in : inputs) {
      out.push_back(Outcome(in.domain.empty()
                                ? engine.Ask(in.text)
                                : engine.AskInDomain(in.domain, in.text)));
    }
    return out;
  };
  engine.SetOptions(core::EngineOptions());
  const std::vector<std::string> fast = answer_all();
  core::EngineOptions reference_options;
  reference_options.reference = true;
  engine.SetOptions(reference_options);
  const std::vector<std::string> reference = answer_all();
  engine.SetOptions(core::EngineOptions());

  std::size_t mismatches = 0, answered = 0, near_cap = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (fast[i].rfind("status ", 0) != 0) ++answered;
    if (inputs[i].text.size() + 64 > serve::kMaxQuestionBytes) ++near_cap;
    if (fast[i] != reference[i]) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "input " << i << " [" << inputs[i].domain << "] '"
                      << inputs[i].text << "'\nfast:      " << fast[i]
                      << "\nreference: " << reference[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The stream must exercise answering, not just error paths, and reach
  // the question cap.
  EXPECT_GT(answered, inputs.size() / 2);
  EXPECT_GT(near_cap, 0u);
}

}  // namespace
}  // namespace cqads

// Figure 6: average query processing time of CQAds and the four compared
// ranking approaches over the survey questions. Paper: Random is fastest
// (no similarity computation); CQAds is faster than AIMQ, cosine, and
// FAQFinder because it retrieves exact matches first and only ranks partial
// answers when needed.
//
// This bench also pins the fast path to the reference path: the whole
// question stream is answered once through the seed reference
// (EngineOptions::reference: Type-rank executor, pointer-trie tagger,
// string-keyed Eq. 5, serial full sort), once through the fast path
// (compiled vectorized plans, FlatTrie, SimScorer, pruned top-k), and once
// from an engine reloaded from a snapshot file; any canonical-answer
// mismatch fails the run (non-zero exit — the CI smoke step relies on it),
// and the ask times quantify the fast path's speedup.
//
// Usage: fig6_efficiency [--quick]
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "eval/experiments.h"

int main(int argc, char** argv) {
  using namespace cqads;
  using Clock = std::chrono::steady_clock;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  auto world = bench::BuildPaperWorld();
  auto questions = eval::GenerateSurveyQuestions(
      *world, quick ? 20 : 80, quick ? 20 : 82, 660);

  // ---- fast vs reference parity + ask-time comparison ----------------
  std::vector<std::pair<std::string, std::string>> stream;  // domain, text
  for (const auto& [domain, qs] : questions) {
    for (const auto& q : qs) stream.emplace_back(domain, q.text);
  }

  auto ask_all = [&](std::vector<std::string>* out) {
    auto start = Clock::now();
    for (const auto& [domain, text] : stream) {
      auto r = world->engine().AskInDomain(domain, text);
      out->push_back(r.ok() ? core::CanonicalAskResultString(r.value())
                            : "ERROR");
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  core::EngineOptions fast_options;  // defaults: the fast path
  core::EngineOptions reference_options;
  reference_options.reference = true;

  // Untimed warmup so the first timed mode does not absorb one-time costs
  // (pipeline singletons, allocator, page cache).
  for (const auto& [domain, text] : stream) {
    (void)world->engine().AskInDomain(domain, text);
  }

  world->mutable_engine().SetOptions(reference_options);
  std::vector<std::string> reference_answers;
  const double reference_secs = ask_all(&reference_answers);

  world->mutable_engine().SetOptions(fast_options);
  std::vector<std::string> fast_answers;
  const double fast_secs = ask_all(&fast_answers);

  // Persistent-snapshot parity: save the engine, boot a second engine from
  // the file (mmap + zero-copy adoption), and serve the whole stream from
  // it. Any byte difference vs the freshly built engine is a serde bug.
  const std::string snap_path = "BENCH_fig6_parity.snap";
  std::vector<std::string> snapshot_answers;
  double snapshot_secs = 0.0;
  {
    Status st = world->engine().SaveSnapshot(snap_path);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    auto reloaded = core::CqadsEngine::OpenSnapshot(snap_path);
    if (!reloaded.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   reloaded.status().ToString().c_str());
      return 1;
    }
    auto start = Clock::now();
    for (const auto& [domain, text] : stream) {
      auto r = reloaded.value()->AskInDomain(domain, text);
      snapshot_answers.push_back(
          r.ok() ? core::CanonicalAskResultString(r.value()) : "ERROR");
    }
    snapshot_secs = std::chrono::duration<double>(Clock::now() - start).count();
    std::remove(snap_path.c_str());
  }

  std::size_t mismatches = 0;
  std::size_t snapshot_mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (reference_answers[i] != fast_answers[i]) ++mismatches;
    if (reference_answers[i] != snapshot_answers[i]) ++snapshot_mismatches;
  }

  bench::PrintHeader("fast path vs reference path (full ask path)");
  std::printf("questions: %zu\n", stream.size());
  std::printf("reference path          : %8.1f q/s\n",
              stream.size() / reference_secs);
  std::printf("fast path               : %8.1f q/s   speedup %.2fx\n",
              stream.size() / fast_secs, reference_secs / fast_secs);
  std::printf("reloaded snapshot (fast): %8.1f q/s   speedup %.2fx\n",
              stream.size() / snapshot_secs, reference_secs / snapshot_secs);
  std::printf("canonical answer mismatches: fast=%zu snapshot=%zu\n",
              mismatches, snapshot_mismatches);

  // ---- the paper figure ----------------------------------------------
  auto result = eval::RunEfficiency(*world, questions, 661);

  bench::PrintHeader("Figure 6: average query processing time");
  std::printf("questions timed per approach: %zu\n", result.questions);
  bench::PrintRule();
  std::printf("%-12s %14s\n", "approach", "avg ms/query");
  bench::PrintRule();
  const char* order[] = {"Random", "CQAds", "Cosine", "AIMQ", "FAQFinder"};
  for (const char* name : order) {
    auto it = result.avg_ms.find(name);
    if (it == result.avg_ms.end()) continue;
    std::printf("%-12s %14.3f\n", name, it->second);
  }
  bench::PrintRule();
  std::printf("(paper's shape: Random fastest; CQAds faster than AIMQ, "
              "cosine similarity, and FAQFinder)\n");

  bench::BenchJson json("fig6_efficiency");
  json.Add("questions", stream.size());
  json.Add("reference_qps", stream.size() / reference_secs);
  json.Add("fast_qps", stream.size() / fast_secs);
  json.Add("snapshot_qps", stream.size() / snapshot_secs);
  json.Add("fast_mismatches", mismatches);
  json.Add("snapshot_mismatches", snapshot_mismatches);
  for (const auto& [name, ms] : result.avg_ms) {
    json.Add("avg_ms_" + name, ms);
  }
  json.Write();

  if (mismatches + snapshot_mismatches > 0) {
    std::printf(
        "FAIL: answers differ from the reference path (fast=%zu, "
        "snapshot=%zu)\n",
        mismatches, snapshot_mismatches);
    return 1;
  }
  return 0;
}

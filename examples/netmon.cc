// netmon: a router-style monitor built on NIPS/CI.
//
// The paper's motivating scenario (§1-2): during a distributed denial of
// service attack "the counts are very small at the first hop but
// significantly contribute to the cumulative effect" — per-flow tables
// can't see it, but the *implication count* of Source → Destination (how
// many sources talk to exactly one destination) jumps by the size of the
// spoofed-source population. netmon streams synthetic traffic with
// injected incidents and watches the per-window increments (§3.2) of
//
//   single-dest sources  S(Source → Destination, K = 1)  — DDoS spike
//   multi-dest sources  ~S(same query)                   — flash-crowd
//                                                           drift (loyal
//                                                           sources gain a
//                                                           destination)
//   exclusive dests      S(Destination → Source, K = 1)  — §1's statistic
//
// all in NIPS/CI's bounded memory, no per-flow state. The DDoS alert is a
// CREATE TRIGGER rule (DESIGN.md §12) evaluated at every window boundary.
//
// `netmon --smoke` checks the story instead of printing it (ctest
// netmon_triggers_smoke, label cql): the rule must fire during the DDoS,
// first in (600000, 700000], and never on the same generator with no
// episodes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datagen/netflow_gen.h"
#include "query/engine.h"

namespace {

using namespace implistat;

struct RunResult {
  uint64_t firings = 0;
  uint64_t first_epoch = 0;
};

RunResult Run(bool episodes, bool verbose) {
  NetflowGenParams params;
  params.seed = 2024;
  params.num_sources = 1 << 20;  // IPv4-ish sparsity: spoofed IPs are fresh
  params.num_destinations = 1 << 13;
  Episode crowd;
  crowd.kind = EpisodeKind::kFlashCrowd;
  crowd.start_tuple = 300000;
  crowd.length = 100000;
  crowd.intensity = 0.6;
  crowd.focus = 1234;
  Episode ddos;
  ddos.kind = EpisodeKind::kDdos;
  ddos.start_tuple = 600000;
  ddos.length = 100000;
  ddos.intensity = 0.7;
  ddos.focus = 42;
  Episode slow_ddos;  // low-rate attack: small counts, cumulative effect
  slow_ddos.kind = EpisodeKind::kDdos;
  slow_ddos.start_tuple = 850000;
  slow_ddos.length = 200000;
  slow_ddos.intensity = 0.35;
  slow_ddos.focus = 99;
  if (episodes) params.episodes = {crowd, ddos, slow_ddos};
  NetflowGenerator gen(params);

  QueryEngine engine(gen.schema());

  auto spec = [](std::vector<std::string> a, std::vector<std::string> b,
                 uint64_t seed, std::string label) {
    ImplicationQuerySpec out;
    out.a_attributes = std::move(a);
    out.b_attributes = std::move(b);
    out.conditions.max_multiplicity = 1;
    out.conditions.min_support = 1;
    out.conditions.min_top_confidence = 1.0;
    out.conditions.confidence_c = 1;
    out.conditions.strict_multiplicity = true;
    out.estimator.kind = EstimatorKind::kNipsCi;
    out.estimator.nips.seed = seed;
    out.label = std::move(label);
    return out;
  };

  QueryId src_query =
      engine.Register(spec({"Source"}, {"Destination"}, 1, "src")).value();
  QueryId dst_query =
      engine.Register(spec({"Destination"}, {"Source"}, 2, "dst")).value();

  constexpr uint64_t kTotal = 1150000;
  constexpr uint64_t kWindow = 50000;
  if (verbose) {
    std::printf("%9s %13s %8s %13s %8s %13s   %s\n", "tuples",
                "single-dest", "+delta", "multi-dest", "+delta", "excl-dest",
                "alerts");
  }

  const ImplicationEstimator* src_est = engine.Estimator(src_query).value();

  // Trigger rule (§2: "associate triggers when implication counts exceed
  // certain thresholds"): a spoofed-source flood adds tens of thousands
  // of new single-destination sources per window. The absolute floor
  // stays above the FM estimator's staircase noise; the relative term
  // (a quarter of the trailing moving average of S) keeps the warm-up
  // windows, where S grows fast from nothing, from alarming.
  const std::string rule =
      "CREATE TRIGGER ddos ON src"
      " WHEN DELTA(src) > 20000 AND DELTA(src) > 0.25 * MOVING_AVG(src, 4)"
      " EVERY 50000 TUPLES";
  StatusOr<std::string> installed = engine.InstallTrigger(rule);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n",
                 std::string(installed.status().message()).c_str());
    std::exit(EXIT_FAILURE);
  }

  RunResult result;
  double prev_s = 0, prev_ns = 0;
  for (uint64_t i = 0; i < kTotal; ++i) {
    engine.ObserveTuple(*gen.Next());
    if ((i + 1) % kWindow != 0) continue;

    double s = engine.Answer(src_query).value();
    double ns = src_est->EstimateNonImplicationCount();
    double excl = engine.Answer(dst_query).value();
    if (verbose) {
      std::printf("%9llu %13.0f %8.0f %13.0f %8.0f %13.0f   ",
                  static_cast<unsigned long long>(i + 1), s, s - prev_s, ns,
                  ns - prev_ns, excl);
    }
    for (const cql::TriggerFiring& firing : engine.TakeTriggerFirings()) {
      if (result.firings++ == 0) result.first_epoch = firing.epoch;
      if (verbose) {
        std::printf("ALERT: %s (spoofed-source flood suspected)",
                    firing.trigger.c_str());
      }
    }
    if (verbose) std::printf("\n");
    prev_s = s;
    prev_ns = ns;
  }
  if (!verbose) return result;

  std::printf("\nGround truth: flash crowd on dest 1234 @300k-400k, DDoS on\n"
              "dest 42 @600k-700k, low-rate DDoS on dest 99 @850k-1050k.\n");
  std::printf("\nEstimator memory:\n");
  for (QueryId id : {src_query, dst_query}) {
    const ImplicationEstimator* est = engine.Estimator(id).value();
    std::printf("  query %d (%s): %zu bytes, m=64 bitmaps, F=4 fringe\n",
                id, est->name().c_str(), est->MemoryBytes());
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--smoke") != 0) {
    Run(/*episodes=*/true, /*verbose=*/true);
    return 0;
  }
  const RunResult incident = Run(/*episodes=*/true, /*verbose=*/false);
  const RunResult quiet = Run(/*episodes=*/false, /*verbose=*/false);
  std::printf("with episodes: %llu firing(s), first at %llu tuples; "
              "quiet: %llu firing(s)\n",
              static_cast<unsigned long long>(incident.firings),
              static_cast<unsigned long long>(incident.first_epoch),
              static_cast<unsigned long long>(quiet.firings));
  if (incident.firings == 0) {
    std::fprintf(stderr, "SMOKE FAILED: the rule never fired on the DDoS\n");
    return 1;
  }
  if (incident.first_epoch <= 600000 || incident.first_epoch > 700000) {
    std::fprintf(stderr,
                 "SMOKE FAILED: first firing outside the DDoS window\n");
    return 1;
  }
  if (quiet.firings != 0) {
    std::fprintf(stderr, "SMOKE FAILED: the rule fired on quiet traffic\n");
    return 1;
  }
  std::printf("smoke OK\n");
  return 0;
}

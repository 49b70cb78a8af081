// netmon_triggers: a self-checking variant of the netmon incident
// monitor on the compiled trigger language (DESIGN.md §12).
//
// Same story as netmon: during a DDoS the spoofed-source population
// makes the implication count S(Source → Destination, K = 1) jump by
// tens of thousands per window, while per-flow tables at the first hop
// see nothing unusual. Here the alert rule is *data*, not code:
//
//   CREATE TRIGGER ddos ON src
//     WHEN DELTA(src) > 10000 AND DELTA(src) > 0.2 * MOVING_AVG(src, 4)
//     EVERY 20000 TUPLES COOLDOWN 100000
//
// — fire when the per-window increment of single-destination sources
// clears an absolute floor (the FM staircase noise stays under it) AND
// is large relative to the trailing moving average of the estimate (so
// the warm-up phase, where everything grows fast, cannot alarm). The
// same statement installs over the wire via `implistat_client
// subscribe --trigger-expr ...`.
//
// The demo runs the stream twice — once with the injected incident,
// once quiet — and asserts the trigger fires only on the incident run,
// so it doubles as the subsystem's end-to-end smoke test (ctest
// netmon_triggers_smoke, label cql).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/netflow_gen.h"
#include "query/engine.h"

namespace {

using namespace implistat;

constexpr uint64_t kTotal = 600000;
constexpr uint64_t kWindow = 20000;

struct RunResult {
  uint64_t firings = 0;
  uint64_t first_epoch = 0;
};

RunResult Run(bool incident, bool verbose) {
  NetflowGenParams params;
  params.seed = 2024;
  params.num_sources = 1 << 20;
  params.num_destinations = 1 << 13;
  if (incident) {
    Episode ddos;
    ddos.kind = EpisodeKind::kDdos;
    ddos.start_tuple = 300000;
    ddos.length = 100000;
    ddos.intensity = 0.7;
    ddos.focus = 42;
    params.episodes = {ddos};
  }
  NetflowGenerator gen(params);

  QueryEngine engine(gen.schema());
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.conditions.strict_multiplicity = true;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.seed = 1;
  spec.label = "src";
  engine.Register(std::move(spec)).value();

  const std::string rule =
      "CREATE TRIGGER ddos ON src"
      " WHEN DELTA(src) > 10000 AND DELTA(src) > 0.2 * MOVING_AVG(src, 4)"
      " EVERY 20000 TUPLES COOLDOWN 100000";
  StatusOr<std::string> installed = engine.InstallTrigger(rule);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n",
                 std::string(installed.status().message()).c_str());
    std::abort();
  }

  RunResult result;
  double prev = 0.0;
  for (uint64_t i = 0; i < kTotal; ++i) {
    engine.ObserveTuple(*gen.Next());
    if (verbose && (i + 1) % kWindow == 0) {
      const double s = engine.Answer(0).value();
      std::printf("  %7llu tuples  single-dest %8.0f  +%6.0f\n",
                  static_cast<unsigned long long>(i + 1), s, s - prev);
      prev = s;
    }
    if (!engine.has_pending_trigger_firings()) continue;
    for (const cql::TriggerFiring& firing : engine.TakeTriggerFirings()) {
      if (result.firings == 0) result.first_epoch = firing.epoch;
      ++result.firings;
      if (verbose) {
        std::printf("  ALERT %s at %llu tuples\n", firing.trigger.c_str(),
                    static_cast<unsigned long long>(firing.epoch));
      }
    }
  }
  if (verbose) {
    std::printf("  final S(Source -> Destination, K=1) = %.0f over %llu "
                "tuples\n",
                engine.Answer(0).value(),
                static_cast<unsigned long long>(engine.tuples_seen()));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool verbose = !(argc > 1 && std::strcmp(argv[1], "--smoke") == 0);

  if (verbose) {
    std::printf("incident run (DDoS on dest 42 @300k-400k, intensity "
                "0.7):\n");
  }
  RunResult incident = Run(/*incident=*/true, verbose);
  if (verbose) std::printf("quiet run (same traffic, no incident):\n");
  RunResult quiet = Run(/*incident=*/false, verbose);

  std::printf("incident run: %llu firing(s)%s; quiet run: %llu firing(s)\n",
              static_cast<unsigned long long>(incident.firings),
              incident.firings > 0 ? " (first during the attack window)" : "",
              static_cast<unsigned long long>(quiet.firings));

  if (incident.firings == 0) {
    std::fprintf(stderr, "SMOKE FAILED: trigger never fired on the DDoS\n");
    return 1;
  }
  if (incident.first_epoch <= 300000 || incident.first_epoch > 420000) {
    std::fprintf(stderr,
                 "SMOKE FAILED: first firing at %llu tuples, outside the "
                 "attack window\n",
                 static_cast<unsigned long long>(incident.first_epoch));
    return 1;
  }
  if (quiet.firings != 0) {
    std::fprintf(stderr, "SMOKE FAILED: trigger fired on quiet traffic\n");
    return 1;
  }
  std::printf("smoke OK\n");
  return 0;
}

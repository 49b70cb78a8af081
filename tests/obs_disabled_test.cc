// Compiles the DISABLED view of the metrics API inside an ON build (and
// vice versa: in an OFF build this file is a no-op re-statement of the
// default). The macro is forced to 0 before any obs include, so the
// obs::Counter/... aliases in this translation unit resolve to
// obs::nullimpl::* regardless of the CMake option — proving the
// instrumentation API stays source-compatible and inert when compiled
// out.
//
// Only obs/metrics.h and the exporter headers are included here: those
// are safe because the classes the alias switch selects live in distinct
// namespaces (real / nullimpl), so this TU defines nothing that another
// TU defines differently. A header that embeds the aliases in class
// layout (obs/progress.h) must NOT be included under a forced macro —
// that would be an ODR violation against the library build.

#undef IMPLISTAT_METRICS
#define IMPLISTAT_METRICS 0

#include <type_traits>

#include <gtest/gtest.h>

#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace implistat::obs {
namespace {

static_assert(!kMetricsEnabled,
              "this TU must see the disabled view of the API");
static_assert(std::is_same_v<Counter, nullimpl::Counter>);
static_assert(std::is_same_v<MetricsRegistry, nullimpl::MetricsRegistry>);

TEST(DisabledMetricsTest, HandlesAreInertAndShared) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("x_total", "help");
  Counter* b = reg.GetCounter("completely_different_total");
  EXPECT_EQ(a, b);  // one shared dummy, nothing registered
  a->Increment(1000);
  EXPECT_EQ(a->Value(), 0u);

  Gauge* g = reg.GetGauge("g");
  g->Set(5);
  g->Add(5);
  EXPECT_EQ(g->Value(), 0);

  Histogram* h = reg.GetHistogram("h");
  h->Record(123);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0u);
  EXPECT_EQ(h->BucketCount(7), 0u);
  { ScopedTimer t(h); }
  EXPECT_EQ(h->Count(), 0u);
}

TEST(DisabledMetricsTest, RegistryStaysEmpty) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("a_total");
  reg.GetGauge("b");
  reg.GetHistogram("c");
  EXPECT_EQ(reg.NumMetrics(), 0u);
  EXPECT_TRUE(reg.Snapshot().metrics.empty());
}

TEST(DisabledMetricsTest, IfMetricsDiscardsTheStatement) {
  int hits = 0;
  IMPLISTAT_IF_METRICS(++hits);
  IMPLISTAT_IF_METRICS({
    hits += 10;
    hits += 100;
  });
  EXPECT_EQ(hits, 0);
}

TEST(DisabledMetricsTest, ExportersHandleTheEmptySnapshot) {
  RegistrySnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(WriteMetricsJson(snap),
            "{\n  \"format\": \"implistat-metrics-v1\",\n  \"metrics\": "
            "[\n  ]\n}\n");
  EXPECT_EQ(WriteMetricsPrometheus(snap), "");
}

static_assert(std::is_same_v<Tracer, tracenull::Tracer>);
static_assert(std::is_same_v<ScopedSpan, tracenull::ScopedSpan>);

TEST(DisabledTraceTest, SpansAreInertAndRecordNothing) {
  Tracer::SetSampleEveryN(1);   // must not enable anything
  EXPECT_EQ(Tracer::SampleEveryN(), 0u);
  {
    ScopedSpan span("test.disabled", "test");
    EXPECT_FALSE(span.sampled());
    span.Annotate("bytes", 123);
    span.SetDetail("ignored");
    // No span is ever "open": nothing to propagate to the wire.
    EXPECT_FALSE(Tracer::CurrentContext().valid());
    EXPECT_FALSE(span.context().valid());
  }
  EXPECT_TRUE(Tracer::Snapshot().empty());
  EXPECT_EQ(Tracer::Dropped(), 0u);
  // A disabled build keeps no flight recorder at all.
  EXPECT_EQ(Tracer::kRingCapacity, 0u);
}

TEST(DisabledTraceTest, WireDataAndExporterStayReal) {
  // SpanContext is wire data and the exporter is a pure function — both
  // must keep working in a disabled build, so a tracing-off edge can
  // still forward contexts and a dump of zero spans is valid JSON.
  SpanContext ctx;
  ctx.trace_hi = 1;
  ctx.trace_lo = 2;
  ctx.span_id = 3;
  ctx.sampled = true;
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(TraceIdHex(ctx.trace_hi, ctx.trace_lo),
            "00000000000000010000000000000002");
  EXPECT_EQ(WriteTraceJson({}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
  SpanRecord record;
  record.name = "still.exports";
  EXPECT_NE(WriteTraceJson({record}).find("still.exports"),
            std::string::npos);
}

TEST(DisabledMetricsTest, RealImplementationStillCompiles) {
  // The real types remain reachable under their own namespace even when
  // the aliases are null — tests and tools can always build one locally.
  real::MetricsRegistry reg;
  reg.GetCounter("x_total")->Increment(2);
  EXPECT_EQ(reg.NumMetrics(), 1u);
  EXPECT_EQ(reg.Snapshot().metrics[0].counter_value, 2u);
}

}  // namespace
}  // namespace implistat::obs

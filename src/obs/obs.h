// Umbrella header + macros for the observability layer.
//
// Compile-time guard: build with -DDP_OBS_ENABLED=0 to compile every macro
// below to nothing (for overhead baselines; see bench/bench_obs.cpp, which
// compiles the same workload both ways). Default is on; the *runtime* cost
// with the tracer and recorder off is two relaxed loads + branches per span.
//
// Usage:
//   DP_SPAN("dp.diffprov.find_seed");       // RAII span to end of scope
//   obs::default_registry().counter("dp.prov.vertex.derive").inc();
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"

#ifndef DP_OBS_ENABLED
#define DP_OBS_ENABLED 1
#endif

#if DP_OBS_ENABLED

#define DP_OBS_CONCAT_INNER(a, b) a##b
#define DP_OBS_CONCAT(a, b) DP_OBS_CONCAT_INNER(a, b)

/// Scoped span on the default tracer (inert unless the tracer is enabled).
#define DP_SPAN(name)                                 \
  ::dp::obs::Span DP_OBS_CONCAT(dp_obs_span_, __LINE__)( \
      ::dp::obs::default_tracer(), (name))

/// Scoped span with an explicit category string literal.
#define DP_SPAN_CAT(name, cat)                        \
  ::dp::obs::Span DP_OBS_CONCAT(dp_obs_span_, __LINE__)( \
      ::dp::obs::default_tracer(), (name), (cat))

/// True if the default tracer records (guards optional timing work).
#define DP_OBS_TRACING() (::dp::obs::default_tracer().enabled())

#else  // DP_OBS_ENABLED == 0

#define DP_SPAN(name) ((void)0)
#define DP_SPAN_CAT(name, cat) ((void)0)
#define DP_OBS_TRACING() (false)

#endif

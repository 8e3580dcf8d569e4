// Umbrella header: everything a library user needs.
//
//   #include "src/swope.h"
//
// pulls in the table substrate (CSV / binary IO, dictionary encoding),
// the four SWOPE query algorithms, the exact and sampling baselines, the
// synthetic dataset generators, the feature-selection helpers, the
// concurrent query engine (dataset registry, unified dispatch, result and
// permutation caching, line-protocol serving), the sketch substrate
// (count-min sketches, sidecar attachment, streaming append), and the
// observability layer (metrics registry, per-round query tracing).

#ifndef SWOPE_SWOPE_H_
#define SWOPE_SWOPE_H_

#include "src/baselines/exact.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/bounds.h"
#include "src/core/entropy.h"
#include "src/core/exec_control.h"
#include "src/core/query_options.h"
#include "src/core/query_result.h"
#include "src/core/sampling_baselines.h"
#include "src/core/sketch_estimation.h"
#include "src/core/swope_filter_entropy.h"
#include "src/core/swope_filter_mi.h"
#include "src/core/swope_filter_nmi.h"
#include "src/core/swope_topk_entropy.h"
#include "src/core/swope_topk_mi.h"
#include "src/core/swope_topk_nmi.h"
#include "src/datagen/dataset_presets.h"
#include "src/datagen/generator.h"
#include "src/engine/dataset_registry.h"
#include "src/engine/permutation_cache.h"
#include "src/engine/query_engine.h"
#include "src/engine/query_spec.h"
#include "src/engine/result_cache.h"
#include "src/engine/serve.h"
#include "src/eval/mrmr.h"
#include "src/obs/metrics.h"
#include "src/obs/query_trace.h"
#include "src/sketch/count_min.h"
#include "src/sketch/frequency_provider.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/column_view.h"
#include "src/table/csv_reader.h"
#include "src/table/csv_writer.h"
#include "src/table/fingerprint.h"
#include "src/table/sketch_sidecar.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"

#endif  // SWOPE_SWOPE_H_

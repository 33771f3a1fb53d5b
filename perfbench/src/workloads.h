// The benchmark's three workloads and the metric names they report.
#pragma once

#include <map>
#include <string>

#include "report.h"

namespace perfbench {

/// Per-layer values by name. run.py reports a per-layer metric a
/// workload does not set as 0: the layer does no work on that workload.
using LayerValues = std::map<std::string, double>;

/// End-to-end metrics, reported by every workload with --trace 0.
void EmitEndToEnd(RunResult& result, double cell_bai_ms, double setup_s,
                  double video_kbps, double jain);
/// The per-layer values a workload measured, for --trace 1.
void EmitPerLayer(RunResult& result, const LayerValues& values);

RunResult RunPaperStatic(const Options& options);
RunResult RunMulticellChurn(const Options& options);
RunResult RunControlPlane(const Options& options);

}  // namespace perfbench

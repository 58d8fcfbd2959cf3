// The benchmark's three workloads. Each fills `report` with every end-to-end
// metric (untraced run) or with the per-layer metrics it exercises (traced
// run), and marks the report incorrect when an output check fails.
#pragma once

#include "report.h"

namespace perfbench {

// glsc-scan: spanning DecodeScheduler::Get queries over one GLSC archive,
// start to end, from one closed-loop caller (cache off, 2 workers,
// max_batch 8).
void RunGlscScan(const RunOptions& options, Report* report);

// glsc-encode: EncodeSession over the same kind of field, then a v4 archive
// with per-record filter selection; the written file is reopened and
// decoded.
void RunGlscEncode(const RunOptions& options, Report* report);

// sz-serve: ShardManager::Get over 2 shards of multi-variable sz v4
// archives, an open-loop phase at a fixed rate followed by a closed-loop
// saturation phase.
void RunSzServe(const RunOptions& options, Report* report);

}  // namespace perfbench

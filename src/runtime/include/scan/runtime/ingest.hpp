#pragma once

// The streaming-ingest seam is the engine's (scan/core/ingest.hpp); front
// ends implement it under its runtime-qualified names.

#include "scan/core/ingest.hpp"

namespace scan::runtime {

using core::IngestSource;
using core::JobOutcome;

}  // namespace scan::runtime

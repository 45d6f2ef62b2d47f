#!/usr/bin/env bash
# Builds the platform with ThreadSanitizer and runs the thread-pool and
# search-layer tests — the code the parallel branch execution engine touches —
# to catch data races that a functional test pass would miss.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DTURRET_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target turret_tests -j "$(nproc)"

# halt_on_error so a race fails the script, not just prints a report.
# Dist coverage runs the thread-mode suites (worker on std::thread shares the
# process with the coordinator — exactly what TSan can see); the fork-based
# DistSearch/DistChaos/FleetTelemetry suites are excluded because TSan and
# fork() don't mix.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR/tests/turret_tests" \
  --gtest_filter='ThreadPool.*:EventQueue.*:MessageBuf.*:Trace.*:Telemetry.*:Histogram.*:FixedPoint.*:MetricRegistry.*:MetricsCollector.*:MetricSpecParser.*:TailDamage.*:TailSearch.*:DelayHistogram.*:ParallelSearchDeterminism.*:Hash.*:Executor.*:Greedy.*:WeightedGreedy.*:BruteForce.*:FaultSpec.*:FaultInjectorTest.*:FaultTolerance.*:FaultAcceptance.*:Journal.*:JournalResume.*:Capture.*:FlightRecorder.*:Audit.*:AuditLog.*:Provenance.*:PageStore.*:MemoryImageDirty.*:MemoryImageCow.*:KsmIndex.*:SnapshotErrors.*:*TestbedSnapshot.*:SnapshotSaveStats.*:SnapshotDecode.*:SnapshotDeterminism.*:Backoff.*:DistProtocol.*:DistFrameProperty.*:DistInProcess.*:GracefulShutdown.*:SchemaSweepGuard.*:SignedSystems/SignedWireProperty.*:SignedSystems/SignedSystemSearch.ByteIdenticalAcrossJobs/*:PoolTelemetry.*:AllSystems/DefaultSearch.*/minbft'

echo "TSan check passed."

// The synthetic city every workload runs on, built from the run's seed.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "roadnet/road_network.h"
#include "serve/frozen_encoder.h"
#include "traj/traffic_model.h"
#include "traj/trajectory.h"

namespace perfbench {

/// Size of the generated world.
struct WorldSpec {
  int32_t grid = 32;  ///< Intersections per side (32 -> 4,090 segments).
  int64_t drivers = 40;
  int64_t days = 7;
  double trips_per_day = 6.0;
};

struct World {
  std::shared_ptr<const start::roadnet::RoadNetwork> net;
  std::unique_ptr<start::traj::TrafficModel> traffic;
  std::unique_ptr<start::roadnet::TransferProbability> transfer;
  std::vector<start::traj::Trajectory> trips;  ///< Filtered, time-ordered.
};

/// City, traffic, trips and transfer probabilities, all derived from `seed`.
World BuildWorld(const WorldSpec& spec, uint64_t seed);

/// Saves a freshly initialised START model (library-default architecture
/// unless `config` says otherwise) for `world` at `path`. Serving speed does
/// not depend on trained weights, so the workloads skip training here.
start::common::Status WriteModelCheckpoint(const World& world,
                                           const start::core::StartConfig& config,
                                           uint64_t seed,
                                           const std::string& path);

/// FrozenEncoder::Load of a WriteModelCheckpoint artifact; aborts on error
/// (the artifact was written by this process).
std::unique_ptr<start::serve::FrozenEncoder> LoadEncoder(
    const World& world, const start::core::StartConfig& config,
    const std::string& path, start::serve::Precision precision);

/// Aborts with `what` when `st` is not OK.
void CheckOk(const start::common::Status& st, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_

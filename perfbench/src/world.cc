#include "world.h"

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/start_model.h"
#include "data/dataset.h"
#include "roadnet/synthetic_city.h"
#include "traj/trip_generator.h"

namespace perfbench {

using start::common::Rng;

void CheckOk(const start::common::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

World BuildWorld(const WorldSpec& spec, uint64_t seed) {
  World w;
  start::roadnet::SyntheticCityConfig city;
  city.grid_width = spec.grid;
  city.grid_height = spec.grid;
  city.seed = seed * 7919 + 17;
  w.net = std::make_shared<const start::roadnet::RoadNetwork>(
      start::roadnet::BuildSyntheticCity(city));

  start::traj::TrafficModel::Config traffic;
  traffic.seed = seed * 7919 + 99;
  w.traffic =
      std::make_unique<start::traj::TrafficModel>(w.net.get(), traffic);

  start::traj::TripGenerator::Config trips;
  trips.num_drivers = spec.drivers;
  trips.num_days = spec.days;
  trips.trips_per_driver_day = spec.trips_per_day;
  trips.seed = seed * 7919 + 4242;
  start::traj::TripGenerator gen(w.traffic.get(), trips);
  start::data::DatasetConfig ds;
  ds.min_length = 6;
  ds.max_length = 128;  // the default StartConfig::max_len
  ds.min_user_trajectories = 1;
  w.trips = start::data::TrajDataset::FromCorpus(*w.net, gen.Generate(), ds)
                .All();

  std::vector<std::vector<int64_t>> seqs;
  seqs.reserve(w.trips.size());
  for (const auto& t : w.trips) seqs.push_back(t.roads);
  w.transfer = std::make_unique<start::roadnet::TransferProbability>(
      start::roadnet::TransferProbability::FromTrajectories(*w.net, seqs));
  return w;
}

start::common::Status WriteModelCheckpoint(
    const World& world, const start::core::StartConfig& config, uint64_t seed,
    const std::string& path) {
  Rng rng(seed * 7919 + 53);
  start::core::StartModel model(config, world.net.get(), world.transfer.get(),
                                &rng);
  return start::core::SaveModelCheckpoint(
      path, model, start::core::HashStartConfig(config));
}

std::unique_ptr<start::serve::FrozenEncoder> LoadEncoder(
    const World& world, const start::core::StartConfig& config,
    const std::string& path, start::serve::Precision precision) {
  start::serve::FrozenEncoderOptions options;
  options.precision = precision;
  auto loaded = start::serve::FrozenEncoder::Load(
      path, config, world.net.get(), world.transfer.get(), options);
  CheckOk(loaded.status(), "FrozenEncoder::Load");
  return std::move(loaded).value();
}

}  // namespace perfbench

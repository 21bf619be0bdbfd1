// crowdml-make-dataset — generate synthetic datasets as CSV for the CLI
// tools and external experiments.
//
//   crowdml-make-dataset --kind mnist|cifar|thermostat|activity
//       [--scale 0.1] [--out-train train.csv] [--out-test test.csv]
//       [--seed 42] [--shards N --shard-prefix dev_]  # per-device files
#include <cstdio>

#include "data/io.hpp"
#include "data/mixture.hpp"
#include "data/thermostat.hpp"
#include "sensing/feature_pipeline.hpp"
#include "tools/flags.hpp"

using namespace crowdml;

int main(int argc, char** argv) {
  try {
    tools::Flags flags(argc, argv);
    const std::string kind = flags.get("kind", "mnist");
    const double scale = flags.get_double("scale", 0.1);
    rng::Engine eng(flags.get_int("seed", 42));

    data::Dataset ds;
    if (kind == "mnist") {
      ds = data::make_mnist_like(eng, scale);
    } else if (kind == "cifar") {
      ds = data::make_cifar_like(eng, scale);
    } else if (kind == "thermostat") {
      data::ThermostatSpec spec;
      spec.train_size = static_cast<std::size_t>(20000 * scale);
      spec.test_size = static_cast<std::size_t>(4000 * scale);
      ds = data::generate_thermostat(spec, eng);
    } else if (kind == "activity") {
      ds.num_classes = 3;
      ds.feature_dim = 64;
      ds.train = sensing::generate_activity_samples(
          eng, static_cast<std::size_t>(3000 * scale));
      ds.test = sensing::generate_activity_samples(
          eng, static_cast<std::size_t>(600 * scale));
    } else {
      throw std::runtime_error("unknown --kind: " + kind);
    }

    const std::string train_path = flags.get("out-train", "train.csv");
    const std::string test_path = flags.get("out-test", "test.csv");
    data::write_csv_file(train_path, ds.train);
    data::write_csv_file(test_path, ds.test);
    std::printf("%s: wrote %zu train -> %s, %zu test -> %s (dim=%zu)\n",
                kind.c_str(), ds.train.size(), train_path.c_str(),
                ds.test.size(), test_path.c_str(), ds.feature_dim);

    const auto shards_n = flags.get_int("shards", 0);
    if (shards_n > 0) {
      rng::Engine shard_eng(flags.get_int("seed", 42) + 1);
      const auto shards = data::shard_across_devices(
          ds.train, static_cast<std::size_t>(shards_n), shard_eng);
      const std::string prefix = flags.get("shard-prefix", "dev_");
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const std::string path = prefix + std::to_string(i) + ".csv";
        data::write_csv_file(path, shards[i]);
      }
      std::printf("sharded train into %lld files: %s0.csv ...\n", shards_n,
                  prefix.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crowdml-make-dataset: %s\n", e.what());
    return 1;
  }
}

// rdsim/sim/cli.h
//
// Command-line handling for the experiment driver (tools/rdsim): every
// registered experiment runs through the same flag set, e.g.
// `rdsim --experiment fig03 --threads 4 --seed 7`; CSV files land under
// --out-dir (default ./out/) instead of being scattered into the working
// directory.
#pragma once

#include <string>

#include "sim/experiment.h"
#include "sim/table.h"

namespace rdsim::sim {

struct CliOptions {
  ExperimentConfig config;
  std::string experiment;      ///< --experiment NAME.
  std::string out_dir = "out"; ///< --out-dir DIR.
  std::string csv_path;        ///< --csv [PATH]; empty = not requested.
  bool csv_requested = false;  ///< --csv seen (path may be defaulted).
  bool no_file = false;        ///< --no-file: stdout only.
  bool quiet = false;          ///< --quiet: suppress the stdout table.
  bool list = false;           ///< --list: print the experiment registry.
  bool list_profiles = false;  ///< --list-profiles: built-in scenarios.
  bool help = false;           ///< --help.
  bool scale_set = false;      ///< An explicit --scale overrides --tiny.
  std::string error;           ///< Non-empty on a parse failure.
};

/// Parses argv[1..]; unknown flags land in `error`.
CliOptions parse_cli(int argc, char** argv);

/// The flag summary printed by --help and on parse errors.
const char* cli_flag_help();

/// Default CSV path for an experiment: <out_dir>/<name>.csv.
std::string default_csv_path(const CliOptions& options,
                             const std::string& name);

/// Writes the table to `path`, creating parent directories. Returns false
/// (with a message on stderr) when the file cannot be written.
bool write_csv_file(const std::string& path, const Table& table);

}  // namespace rdsim::sim

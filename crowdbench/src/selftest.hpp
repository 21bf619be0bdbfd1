// `crowdbench selftest`: the benchmark's tests of itself.
#pragma once

#include <string>

namespace crowdbench {

/// Runs against DIR/crowdml-server in `work`; 0 when every check holds.
int run_selftest(const std::string& bin, const std::string& work);

}  // namespace crowdbench

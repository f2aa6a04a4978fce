#include "run_mode.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace pccs::dram {

namespace {

unsigned
envShards()
{
    const char *env = std::getenv("PCCS_MC_SHARDS");
    if (!env || !*env)
        return 0;
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

McRunMode &
defaultMcMode()
{
    static McRunMode mode = std::getenv("PCCS_MC_SHARDS")
                                ? McRunMode::Sharded
                                : McRunMode::EventDriven;
    return mode;
}

} // namespace

const char *
mcRunModeName(McRunMode mode)
{
    switch (mode) {
      case McRunMode::EventDriven:
        return "event-driven";
      case McRunMode::Sharded:
        return "sharded";
    }
    panic("unknown McRunMode %d", static_cast<int>(mode));
}

McRunMode
defaultMcRunMode()
{
    return defaultMcMode();
}

void
setDefaultMcRunMode(McRunMode mode)
{
    defaultMcMode() = mode;
}

unsigned
mcShardWorkers()
{
    static unsigned shards = envShards();
    return shards;
}

} // namespace pccs::dram

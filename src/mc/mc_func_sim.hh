/**
 * @file
 * The N-core functional simulator is `sim::FuncSim` with
 * `Config::cores` > 1; this name stays for callers that spell it the
 * multi-core way.
 */

#ifndef TEA_MC_MC_FUNC_SIM_HH
#define TEA_MC_MC_FUNC_SIM_HH

#include "sim/func_sim.hh"

namespace tea::mc {

using McFuncSim = sim::FuncSim;

} // namespace tea::mc

#endif // TEA_MC_MC_FUNC_SIM_HH

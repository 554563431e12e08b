#include "support/Statistics.h"

#include "support/OStream.h"

using namespace mpc;

void StatsRegistry::print(OStream &OS) const {
  for (const auto &[Key, Value] : Counters)
    OS << Key << " = " << Value << '\n';
}

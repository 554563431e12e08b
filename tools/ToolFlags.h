//===----------------------------------------------------------------------===//
//
// Checked numeric flag values, shared by the command-line tools. A value
// that does not parse, carries trailing junk, or falls outside the flag's
// range prints "--flag=value: expected ..." and exits with status 2
// before the tool starts anything.
//
//===----------------------------------------------------------------------===//

#ifndef MPC_TOOLS_TOOLFLAGS_H
#define MPC_TOOLS_TOOLFLAGS_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mpc::tools {

/// Cap on --threads and --connections: each one starts an OS thread, so a
/// typo must not ask for thousands of them.
constexpr uint64_t MaxThreads = 256;

[[noreturn]] inline void badFlag(const char *Flag, const char *Value,
                                 const std::string &Want) {
  std::fprintf(stderr, "%s=%s: expected %s\n", Flag, Value, Want.c_str());
  std::exit(2);
}

/// The value following \p Flag at Argv[I + 1]; advances I. Exits with
/// status 2 when the flag is the last argument.
inline const char *flagValue(int Argc, char **Argv, int &I,
                             const char *Flag) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s needs a value\n", Flag);
    std::exit(2);
  }
  return Argv[++I];
}

/// A decimal integer in [Lo, Hi]. Signs and leading blanks are rejected
/// (strtoull would wrap "-1" to 2^64 - 1).
inline uint64_t parseUInt(const char *Flag, const char *Value, uint64_t Lo,
                          uint64_t Hi) {
  char *End = nullptr;
  errno = 0;
  uint64_t N = std::isdigit(static_cast<unsigned char>(Value[0]))
                   ? std::strtoull(Value, &End, 10)
                   : 0;
  if (End == nullptr || *End != '\0' || errno == ERANGE || N < Lo || N > Hi)
    badFlag(Flag, Value,
            "an integer in [" + std::to_string(Lo) + ", " +
                std::to_string(Hi) + "]");
  return N;
}

/// A finite number in [Lo, Hi], or in (Lo, Hi] when \p LoOpen.
inline double parseReal(const char *Flag, const char *Value, double Lo,
                        double Hi, bool LoOpen = false) {
  char *End = nullptr;
  double X = std::isspace(static_cast<unsigned char>(Value[0]))
                 ? NAN
                 : std::strtod(Value, &End);
  if (End == Value || End == nullptr || *End != '\0' || !std::isfinite(X) ||
      X < Lo || (LoOpen && X == Lo) || X > Hi) {
    char Want[96];
    std::snprintf(Want, sizeof(Want), "a number in %c%g, %g]",
                  LoOpen ? '(' : '[', Lo, Hi);
    badFlag(Flag, Value, Want);
  }
  return X;
}

/// The value after \p Flag, as parseUInt / parseReal check it.
inline uint64_t uintFlag(int Argc, char **Argv, int &I, const char *Flag,
                         uint64_t Lo, uint64_t Hi) {
  return parseUInt(Flag, flagValue(Argc, Argv, I, Flag), Lo, Hi);
}
inline double realFlag(int Argc, char **Argv, int &I, const char *Flag,
                       double Lo, double Hi) {
  return parseReal(Flag, flagValue(Argc, Argv, I, Flag), Lo, Hi);
}

} // namespace mpc::tools

#endif // MPC_TOOLS_TOOLFLAGS_H

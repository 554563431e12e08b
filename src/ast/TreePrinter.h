//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable tree dumping, used by examples and failing-test output.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_AST_TREEPRINTER_H
#define MPC_AST_TREEPRINTER_H

#include "ast/Trees.h"

#include <string>

namespace mpc {

class OStream;

/// Options for appendTree / printTree / treeToString.
struct PrintOptions {
  bool ShowTypes = false;
  bool ShowSymbolIds = false;
  unsigned MaxDepth = 0; // 0 = unlimited
};

/// Appends an indented structural dump of the subtree to \p Out.
void appendTree(std::string &Out, const Tree *T,
                const PrintOptions &Opts = PrintOptions());

/// Prints an indented structural dump of the subtree.
void printTree(OStream &OS, const Tree *T,
               const PrintOptions &Opts = PrintOptions());

/// Convenience: dump to a string.
std::string treeToString(const Tree *T,
                         const PrintOptions &Opts = PrintOptions());

} // namespace mpc

#endif // MPC_AST_TREEPRINTER_H

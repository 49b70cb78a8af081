// Pratt parser for trigger rules (grammar in DESIGN.md §12).
//
// ParseCreateTrigger compiles one statement's worth of tokens into a
// TriggerDecl AST. Errors come back as InvalidArgument whose message is
// already caret-rendered against the source text.

#ifndef IMPLISTAT_CQL_PARSER_H_
#define IMPLISTAT_CQL_PARSER_H_

#include <string_view>
#include <vector>

#include "cql/ast.h"
#include "util/status_or.h"

namespace implistat {
namespace cql {

/// How deep an expression may nest. The WHEN expression's root is level
/// 0; each `(`, each unary operator and each operand of a binary operator
/// is one level further down. The parser refuses a leaf deeper than this
/// with a caret at the token that opens the extra level, which bounds the
/// recursion of the parser, sema and the evaluator. So `a + a + ... > 1`
/// takes at most 64 terms: its first term sits one level below each `+`
/// and the `>`.
inline constexpr int kMaxExprDepth = 64;

/// Parses `CREATE TRIGGER name ON label WHEN expr [EVERY n TUPLES]
/// [COOLDOWN n]`. A trailing `;` is tolerated. Label resolution happens
/// later in sema; this only checks shape.
StatusOr<TriggerDecl> ParseCreateTrigger(std::string_view source);

/// Parses a bare boolean/arithmetic expression (used by tests to exercise
/// the expression grammar in isolation).
StatusOr<std::unique_ptr<Expr>> ParseExpression(std::string_view source);

/// Splits a trigger script into individual statements on top-level `;`,
/// honouring single-quoted strings and `--` line comments. Whitespace-
/// and comment-only chunks are dropped, so a file of statements each
/// ending in `;` (with or without a trailing newline) round-trips
/// cleanly into ParseCreateTrigger inputs.
std::vector<std::string> SplitStatements(std::string_view script);

}  // namespace cql
}  // namespace implistat

#endif  // IMPLISTAT_CQL_PARSER_H_

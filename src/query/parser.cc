#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>

#include "cql/diag.h"

namespace implistat {

namespace {

// Caret-diagnostic prefix for every error out of this parser; the
// rendering machinery is shared with the trigger language (cql/diag.h).
constexpr std::string_view kDiagPrefix = "query parse error";

enum class TokenKind {
  kIdent,    // bareword: keyword, attribute, number
  kString,   // 'quoted'
  kSymbol,   // ( ) , = !=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  cql::SourceSpan span;
};

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < text_.size()) {
      const size_t start = pos_;
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == '=') {
        tokens.push_back(Token{TokenKind::kSymbol, std::string(1, c),
                               cql::SourceSpan{start, 1}});
        ++pos_;
        continue;
      }
      if (c == '!') {
        if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '=') {
          return Fail(cql::SourceSpan{start, 1}, "expected '=' after '!'");
        }
        tokens.push_back(
            Token{TokenKind::kSymbol, "!=", cql::SourceSpan{start, 2}});
        pos_ += 2;
        continue;
      }
      if (c == '\'') {
        ++pos_;
        std::string value;
        while (pos_ < text_.size() && text_[pos_] != '\'') {
          value.push_back(text_[pos_++]);
        }
        if (pos_ >= text_.size()) {
          return Fail(cql::SourceSpan{start, pos_ - start},
                      "unterminated string");
        }
        ++pos_;  // closing quote
        tokens.push_back(Token{TokenKind::kString, std::move(value),
                               cql::SourceSpan{start, pos_ - start}});
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-') {
        std::string word;
        while (pos_ < text_.size()) {
          char w = text_[pos_];
          if (std::isalnum(static_cast<unsigned char>(w)) || w == '_' ||
              w == '.' || w == '-') {
            word.push_back(w);
            ++pos_;
          } else {
            break;
          }
        }
        tokens.push_back(Token{TokenKind::kIdent, std::move(word),
                               cql::SourceSpan{start, pos_ - start}});
        continue;
      }
      return Fail(cql::SourceSpan{start, 1},
                  std::string("bad character '") + c + "'");
    }
    tokens.push_back(
        Token{TokenKind::kEnd, "", cql::SourceSpan{text_.size(), 1}});
    return tokens;
  }

 private:
  Status Fail(cql::SourceSpan span, std::string message) const {
    return cql::DiagnosticToStatus(
        text_, cql::Diagnostic{std::move(message), span}, kDiagPrefix);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::string_view text, std::vector<Token> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  StatusOr<ParsedQuery> Run() {
    ParsedQuery query;
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("COUNT"));
    IMPLISTAT_RETURN_NOT_OK(ExpectSymbol("("));
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("DISTINCT"));
    IMPLISTAT_ASSIGN_OR_RETURN(query.count_attributes, ParseAttrList());
    IMPLISTAT_RETURN_NOT_OK(ExpectSymbol(")"));
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("FROM"));
    IMPLISTAT_ASSIGN_OR_RETURN(query.relation, ExpectIdent());
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("WHERE"));
    if (PeekKeyword("NOT")) {
      Advance();
      query.complement = true;
    }
    IMPLISTAT_ASSIGN_OR_RETURN(query.a_attributes, ParseAttrList());
    IMPLISTAT_RETURN_NOT_OK(ExpectKeyword("IMPLIES"));
    IMPLISTAT_ASSIGN_OR_RETURN(query.b_attributes, ParseAttrList());
    while (PeekKeyword("AND")) {
      Advance();
      IMPLISTAT_ASSIGN_OR_RETURN(TextCondition cond, ParseCondition());
      query.conditions.push_back(std::move(cond));
    }
    if (PeekKeyword("WITH")) {
      Advance();
      IMPLISTAT_RETURN_NOT_OK(ParseParams(&query));
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Fail(Peek().span, "trailing tokens from '" + Peek().text + "'");
    }
    IMPLISTAT_RETURN_NOT_OK(query.implication.Validate());
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  Status Fail(cql::SourceSpan span, std::string message) const {
    return cql::DiagnosticToStatus(
        text_, cql::Diagnostic{std::move(message), span}, kDiagPrefix);
  }

  std::string Found() const {
    return Peek().kind == TokenKind::kEnd ? std::string("end of input")
                                          : "'" + Peek().text + "'";
  }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().kind == TokenKind::kIdent &&
           ToUpper(Peek().text) == keyword;
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Fail(Peek().span, "expected " + std::string(keyword) +
                                   ", found " + Found());
    }
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(std::string_view symbol) {
    if (Peek().kind != TokenKind::kSymbol || Peek().text != symbol) {
      return Fail(Peek().span, "expected '" + std::string(symbol) +
                                   "', found " + Found());
    }
    Advance();
    return Status::OK();
  }

  StatusOr<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return Fail(Peek().span, "expected identifier, found " + Found());
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  StatusOr<std::vector<std::string>> ParseAttrList() {
    std::vector<std::string> attrs;
    IMPLISTAT_ASSIGN_OR_RETURN(std::string first, ExpectIdent());
    attrs.push_back(std::move(first));
    while (Peek().kind == TokenKind::kSymbol && Peek().text == ",") {
      // A comma also separates WITH parameters; only continue while the
      // next token cannot start a keyword clause.
      Advance();
      IMPLISTAT_ASSIGN_OR_RETURN(std::string next, ExpectIdent());
      attrs.push_back(std::move(next));
    }
    return attrs;
  }

  StatusOr<TextCondition> ParseCondition() {
    TextCondition cond;
    IMPLISTAT_ASSIGN_OR_RETURN(cond.attribute, ExpectIdent());
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "!=") {
      cond.negated = true;
      Advance();
    } else {
      IMPLISTAT_RETURN_NOT_OK(ExpectSymbol("="));
    }
    if (Peek().kind == TokenKind::kString) {
      cond.value = Peek().text;
      cond.quoted = true;
      Advance();
    } else {
      IMPLISTAT_ASSIGN_OR_RETURN(cond.value, ExpectIdent());
    }
    return cond;
  }

  Status ParseParams(ParsedQuery* query) {
    while (true) {
      const cql::SourceSpan name_span = Peek().span;
      IMPLISTAT_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      std::string key = ToUpper(name);
      IMPLISTAT_RETURN_NOT_OK(ExpectSymbol("="));
      const cql::SourceSpan value_span = Peek().span;
      IMPLISTAT_ASSIGN_OR_RETURN(std::string value, ExpectIdent());
      IMPLISTAT_RETURN_NOT_OK(
          ApplyParam(key, value, name_span, value_span, query));
      if (Peek().kind == TokenKind::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      return Status::OK();
    }
  }

  Status ApplyParam(const std::string& key, const std::string& value,
                    cql::SourceSpan name_span, cql::SourceSpan value_span,
                    ParsedQuery* query) {
    // Plain decimal digits no larger than `max`: from_chars takes no sign
    // for an unsigned target, where strtoull would wrap "-1" to 2^64-1.
    auto parse_u64 = [&](uint64_t* out,
                         uint64_t max = std::numeric_limits<uint64_t>::max())
        -> Status {
      const char* last = value.data() + value.size();
      uint64_t v = 0;
      const auto [ptr, ec] = std::from_chars(value.data(), last, v);
      if (ec == std::errc::invalid_argument || ptr != last) {
        return Fail(value_span, "bad integer for " + key);
      }
      if (ec == std::errc::result_out_of_range || v > max) {
        return Fail(value_span, key + " exceeds " + std::to_string(max));
      }
      *out = v;
      return Status::OK();
    };
    constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
    auto parse_double = [&](double* out) -> Status {
      char* end = nullptr;
      *out = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Fail(value_span, "bad number for " + key);
      }
      return Status::OK();
    };
    ImplicationConditions& cond = query->implication;
    if (key == "K" || key == "MULTIPLICITY") {
      uint64_t v;
      IMPLISTAT_RETURN_NOT_OK(parse_u64(&v, kU32Max));
      cond.max_multiplicity = static_cast<uint32_t>(v);
    } else if (key == "SUPPORT" || key == "SIGMA") {
      IMPLISTAT_RETURN_NOT_OK(parse_u64(&cond.min_support));
    } else if (key == "CONFIDENCE" || key == "GAMMA") {
      IMPLISTAT_RETURN_NOT_OK(parse_double(&cond.min_top_confidence));
    } else if (key == "C" || key == "TOP") {
      uint64_t v;
      IMPLISTAT_RETURN_NOT_OK(parse_u64(&v, kU32Max));
      cond.confidence_c = static_cast<uint32_t>(v);
    } else if (key == "WINDOW") {
      IMPLISTAT_RETURN_NOT_OK(parse_u64(&query->window));
    } else if (key == "STRIDE") {
      IMPLISTAT_RETURN_NOT_OK(parse_u64(&query->stride));
    } else if (key == "STRICT") {
      std::string upper = ToUpper(value);
      if (upper != "TRUE" && upper != "FALSE") {
        return Fail(value_span, "STRICT must be true/false");
      }
      cond.strict_multiplicity = upper == "TRUE";
    } else if (key == "ESTIMATOR") {
      std::string upper = ToUpper(value);
      if (upper == "NIPS") {
        query->estimator = EstimatorKind::kNipsCi;
      } else if (upper == "EXACT") {
        query->estimator = EstimatorKind::kExact;
      } else if (upper == "DS") {
        query->estimator = EstimatorKind::kDistinctSampling;
      } else if (upper == "ILC") {
        query->estimator = EstimatorKind::kIlc;
      } else if (upper == "ISS") {
        query->estimator = EstimatorKind::kIss;
      } else {
        return Fail(value_span, "unknown estimator " + value);
      }
    } else {
      return Fail(name_span, "unknown WITH parameter " + key);
    }
    return Status::OK();
  }

  std::string_view text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<ParsedQuery> ParseImplicationQuery(std::string_view text) {
  Lexer lexer(text);
  IMPLISTAT_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  return Parser(text, std::move(tokens)).Run();
}

StatusOr<ImplicationQuerySpec> BindQuery(
    const ParsedQuery& parsed, const Schema& schema,
    const std::vector<ValueDictionary>* dictionaries) {
  if (parsed.count_attributes != parsed.a_attributes) {
    return Status::InvalidArgument(
        "query: COUNT(DISTINCT ...) attributes must match the IMPLIES "
        "left-hand side");
  }
  ImplicationQuerySpec spec;
  spec.a_attributes = parsed.a_attributes;
  spec.b_attributes = parsed.b_attributes;
  spec.conditions = parsed.implication;
  spec.complement = parsed.complement;
  spec.estimator.kind = parsed.estimator;
  spec.estimator.window = parsed.window;
  spec.estimator.stride = parsed.stride;

  std::vector<std::shared_ptr<const Predicate>> predicates;
  for (const TextCondition& cond : parsed.conditions) {
    IMPLISTAT_ASSIGN_OR_RETURN(int attr, schema.IndexOf(cond.attribute));
    const ValueDictionary* dict =
        dictionaries != nullptr &&
                static_cast<size_t>(attr) < dictionaries->size()
            ? &(*dictionaries)[attr]
            : nullptr;
    ValueId value;
    if (cond.quoted) {
      // Quoted literals are dictionary values by definition.
      if (dict == nullptr) {
        return Status::InvalidArgument(
            "query: string value '" + cond.value +
            "' needs a dictionary for " + cond.attribute);
      }
      IMPLISTAT_ASSIGN_OR_RETURN(value, dict->Find(cond.value));
    } else if (dict != nullptr && dict->Find(cond.value).ok()) {
      value = dict->Find(cond.value).value();
    } else {
      // Bare token: fall back to a raw value id.
      char* end = nullptr;
      unsigned long long raw = std::strtoull(cond.value.c_str(), &end, 10);
      if (end == cond.value.c_str() || *end != '\0') {
        return Status::InvalidArgument("query: cannot resolve value '" +
                                       cond.value + "' for " +
                                       cond.attribute);
      }
      value = static_cast<ValueId>(raw);
    }
    std::shared_ptr<const Predicate> pred =
        std::make_shared<EqualsPredicate>(attr, value);
    if (cond.negated) pred = std::make_shared<NotPredicate>(std::move(pred));
    predicates.push_back(std::move(pred));
  }
  if (predicates.size() == 1) {
    spec.where = predicates.front();
  } else if (predicates.size() > 1) {
    spec.where = std::make_shared<AndPredicate>(std::move(predicates));
  }
  return spec;
}

}  // namespace implistat

// Unit tests for the NDlog layer: values, tuples, tables, lexer, parser,
// expression evaluation, builtins, and program validation.
#include <gtest/gtest.h>

#include "ndlog/eval.h"
#include "ndlog/functions.h"
#include "ndlog/lexer.h"
#include "ndlog/parser.h"
#include "ndlog/program.h"
#include "runtime/table.h"
#include "store/store.h"

namespace dp {
namespace {

// ---------------------------------------------------------------- values --

TEST(Value, TypeTagsAndAccessors) {
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(Ipv4(1, 2, 3, 4)).is_ip());
  EXPECT_TRUE(Value(IpPrefix(Ipv4(1, 2, 3, 0), 24)).is_prefix());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value("x").as_string(), "x");
}

TEST(Value, OrderingIsTotalAcrossTypes) {
  const Value a(1);
  const Value b("1");
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a == b);
}

TEST(Value, HashIsStableAndTypeSensitive) {
  EXPECT_EQ(Value(5).hash(), Value(5).hash());
  EXPECT_NE(Value(5).hash(), Value("5").hash());
  EXPECT_NE(Value(Ipv4(0, 0, 0, 5)).hash(), Value(5).hash());
}

TEST(Tuple, LocationAndRendering) {
  const Tuple t("flowEntry", {Value("S2"), Value(100),
                              Value(IpPrefix(Ipv4(4, 3, 2, 0), 24))});
  EXPECT_EQ(t.location(), "S2");
  EXPECT_EQ(t.to_string(), "flowEntry(@S2, 100, 4.3.2.0/24)");
}

TEST(Tuple, WithFieldReplacesOneField) {
  const Tuple t("cfg", {Value("n"), Value(1), Value(2)});
  const Tuple u = t.with_field(2, Value(9));
  EXPECT_EQ(u.at(2).as_int(), 9);
  EXPECT_EQ(u.at(1).as_int(), 1);
  EXPECT_FALSE(t == u);
}

// ---------------------------------------------------------------- tables --

TableDecl keyed_decl() {
  TableDecl decl;
  decl.name = "cfg";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  return decl;
}

TEST(Table, InsertRemoveLifecycle) {
  Table table(keyed_decl());
  const Tuple t("cfg", {Value("n"), Value("k"), Value(1)});
  EXPECT_TRUE(table.insert(t, 10, intern_tuple(t)).inserted);
  EXPECT_TRUE(table.is_live(t));
  EXPECT_TRUE(table.existed_at(t, 10));
  EXPECT_FALSE(table.existed_at(t, 9));
  EXPECT_TRUE(table.remove(t, 20));
  EXPECT_FALSE(table.is_live(t));
  EXPECT_TRUE(table.existed_at(t, 19));
  EXPECT_FALSE(table.existed_at(t, 20));
}

TEST(Table, KeyUpsertDisplacesOldValue) {
  Table table(keyed_decl());
  const Tuple v1("cfg", {Value("n"), Value("k"), Value(1)});
  const Tuple v2("cfg", {Value("n"), Value("k"), Value(2)});
  table.insert(v1, 10, intern_tuple(v1));
  const auto result = table.insert(v2, 20, intern_tuple(v2));
  EXPECT_TRUE(result.inserted);
  ASSERT_TRUE(result.displaced.has_value());
  EXPECT_EQ(result.displaced->tuple, v1);
  EXPECT_FALSE(table.is_live(v1));
  EXPECT_TRUE(table.is_live(v2));
  // Temporal history kept: v1 existed during [10, 20).
  EXPECT_TRUE(table.existed_at(v1, 15));
  EXPECT_FALSE(table.existed_at(v1, 20));
}

TEST(Table, DuplicateInsertIsNoOp) {
  Table table(keyed_decl());
  const Tuple t("cfg", {Value("n"), Value("k"), Value(1)});
  EXPECT_TRUE(table.insert(t, 10, intern_tuple(t)).inserted);
  EXPECT_FALSE(table.insert(t, 15, intern_tuple(t)).inserted);
  EXPECT_EQ(table.history(t).size(), 1u);
}

TEST(Table, ReinsertionAppendsSecondInterval) {
  Table table(keyed_decl());
  const Tuple t("cfg", {Value("n"), Value("k"), Value(1)});
  table.insert(t, 10, intern_tuple(t));
  table.remove(t, 20);
  table.insert(t, 30, intern_tuple(t));
  const auto history = table.history(t);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0], (TimeInterval{10, 20}));
  EXPECT_TRUE(history[1].open_ended());
  EXPECT_TRUE(table.existed_at(t, 15));
  EXPECT_FALSE(table.existed_at(t, 25));
  EXPECT_TRUE(table.existed_at(t, 35));
}

TEST(Table, SetSemanticsWithoutKeys) {
  TableDecl decl;
  decl.name = "s";
  decl.arity = 2;
  Table table(decl);
  const Tuple a("s", {Value("n"), Value(1)});
  const Tuple b("s", {Value("n"), Value(2)});
  table.insert(a, 1, intern_tuple(a));
  const auto result = table.insert(b, 2, intern_tuple(b));
  EXPECT_TRUE(result.inserted);
  EXPECT_FALSE(result.displaced.has_value());  // different full tuples coexist
  EXPECT_EQ(table.live_count(), 2u);
}

TEST(Table, ForEachAtSeesHistoricalState) {
  Table table(keyed_decl());
  const Tuple v1("cfg", {Value("n"), Value("k"), Value(1)});
  const Tuple v2("cfg", {Value("n"), Value("k"), Value(2)});
  table.insert(v1, 10, intern_tuple(v1));
  table.insert(v2, 20, intern_tuple(v2));  // displaces v1
  std::vector<Tuple> at15;
  table.for_each_at(15, [&](const Tuple& t) { at15.push_back(t); });
  ASSERT_EQ(at15.size(), 1u);
  EXPECT_EQ(at15[0], v1);
  std::vector<Tuple> at25;
  table.for_each_at(25, [&](const Tuple& t) { at25.push_back(t); });
  ASSERT_EQ(at25.size(), 1u);
  EXPECT_EQ(at25[0], v2);
}

// ----------------------------------------------------------------- lexer --

TEST(Lexer, NumbersIpsAndPrefixes) {
  const auto tokens = lex("42 4.2 4.3.2.1 4.3.2.0/24");
  ASSERT_EQ(tokens.size(), 5u);  // + end
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDouble);
  EXPECT_EQ(tokens[2].kind, TokenKind::kIp);
  EXPECT_EQ(tokens[3].kind, TokenKind::kPrefix);
  EXPECT_EQ(tokens[3].literal.as_prefix().length(), 24);
}

TEST(Lexer, PeriodAfterNumberIsStatementTerminator) {
  const auto tokens = lex("foo(4).");
  // ident, (, int, ), period, end
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[2].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[4].kind, TokenKind::kPeriod);
}

TEST(Lexer, VariablesVsIdentifiers) {
  const auto tokens = lex("Pkt flowEntry _ f_matches");
  EXPECT_EQ(tokens[0].kind, TokenKind::kVar);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[2].kind, TokenKind::kVar);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIdent);
}

TEST(Lexer, OperatorsAndPunctuation) {
  const auto tokens = lex(":- := == != <= >= << >> && || @ , ( ) .");
  EXPECT_EQ(tokens[0].kind, TokenKind::kTurnstile);
  EXPECT_EQ(tokens[1].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[2].text, "==");
  EXPECT_EQ(tokens[3].text, "!=");
  EXPECT_EQ(tokens[8].text, "&&");
  EXPECT_EQ(tokens[9].text, "||");
}

TEST(Lexer, CommentsAreSkipped) {
  const auto tokens = lex("a // comment\n# another\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, StringEscapes) {
  const auto tokens = lex(R"("a\"b\\c")");
  EXPECT_EQ(tokens[0].literal.as_string(), "a\"b\\c");
}

TEST(Lexer, ReportsPositionOnError) {
  try {
    lex("a\n  $");
    FAIL() << "expected LexError";
  } catch (const LexError& e) {
    EXPECT_NE(std::string(e.what()).find("2:3"), std::string::npos);
  }
}

// ----------------------------------------------------------- expressions --

Value eval_str(const std::string& source, const Bindings& bindings = {}) {
  return eval_expr(*parse_expression(source), bindings);
}

TEST(Eval, ArithmeticPrecedence) {
  EXPECT_EQ(eval_str("2 + 3 * 4").as_int(), 14);
  EXPECT_EQ(eval_str("(2 + 3) * 4").as_int(), 20);
  EXPECT_EQ(eval_str("10 - 4 - 3").as_int(), 3);  // left assoc
  EXPECT_EQ(eval_str("7 % 3").as_int(), 1);
}

TEST(Eval, ComparisonAndLogic) {
  EXPECT_EQ(eval_str("1 < 2 && 3 >= 3").as_int(), 1);
  EXPECT_EQ(eval_str("1 == 2 || 2 == 2").as_int(), 1);
  EXPECT_EQ(eval_str("!(1 == 1)").as_int(), 0);
  EXPECT_EQ(eval_str("1 != 2").as_int(), 1);
}

TEST(Eval, BitOperations) {
  EXPECT_EQ(eval_str("12 & 10").as_int(), 8);
  EXPECT_EQ(eval_str("12 | 10").as_int(), 14);
  EXPECT_EQ(eval_str("12 ^ 10").as_int(), 6);
  EXPECT_EQ(eval_str("1 << 4").as_int(), 16);
  EXPECT_EQ(eval_str("255 >> 4").as_int(), 15);
}

TEST(Eval, VariablesAndUnbound) {
  Bindings b{{"X", Value(5)}};
  EXPECT_EQ(eval_expr(*parse_expression("X * 2 + 1"), b).as_int(), 11);
  EXPECT_THROW(eval_str("Y + 1"), EvalError);
}

TEST(Eval, MixedNumericPromotesToDouble) {
  EXPECT_DOUBLE_EQ(eval_str("1 + 0.5").as_double(), 1.5);
}

TEST(Eval, DivisionByZeroThrows) {
  EXPECT_THROW(eval_str("1 / 0"), EvalError);
  EXPECT_THROW(eval_str("1 % 0"), EvalError);
}

TEST(Eval, StringConcatViaPlus) {
  EXPECT_EQ(eval_str("\"a\" + \"b\"").as_string(), "ab");
}

TEST(Eval, TypeErrorsThrow) {
  EXPECT_THROW(eval_str("\"a\" * 2"), EvalError);
  EXPECT_THROW(eval_str("1 < \"a\""), EvalError);
}

// -------------------------------------------------------------- builtins --

TEST(Builtins, MatchesPrefix) {
  EXPECT_EQ(eval_str("f_matches(4.3.2.1, 4.3.2.0/24)").as_int(), 1);
  EXPECT_EQ(eval_str("f_matches(4.3.3.1, 4.3.2.0/24)").as_int(), 0);
  EXPECT_EQ(eval_str("f_matches(4.3.3.1, 4.3.2.0/23)").as_int(), 1);
}

TEST(Builtins, MatchesSolverWidensMinimally) {
  // Solving f_matches(4.3.3.1, P) == 1 from P = 4.3.2.0/24 must produce
  // 4.3.2.0/23 -- the exact SDN1 root-cause fix.
  const BuiltinInfo* info = FunctionRegistry::instance().find("f_matches");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(static_cast<bool>(info->solver));
  const auto solved = info->solver(
      1, {Value(Ipv4(4, 3, 3, 1)), Value(*IpPrefix::parse("4.3.2.0/24"))},
      Value(1));
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->as_prefix().to_string(), "4.3.2.0/23");
}

TEST(Builtins, MatchesSolverRefusesDesiredZero) {
  const BuiltinInfo* info = FunctionRegistry::instance().find("f_matches");
  const auto solved = info->solver(
      1, {Value(Ipv4(4, 3, 3, 1)), Value(*IpPrefix::parse("4.3.2.0/24"))},
      Value(0));
  EXPECT_FALSE(solved.has_value());
}

TEST(Builtins, OctetsAndPrefixConstruction) {
  EXPECT_EQ(eval_str("f_last_octet(4.3.2.9)").as_int(), 9);
  EXPECT_EQ(eval_str("f_octet(4.3.2.9, 0)").as_int(), 4);
  EXPECT_EQ(eval_str("f_prefix(4.3.2.9, 24)").as_prefix().to_string(),
            "4.3.2.0/24");
}

TEST(Builtins, HashAndPartitionAreDeterministic) {
  EXPECT_EQ(eval_str("f_hash(\"word\")"), eval_str("f_hash(\"word\")"));
  const auto p = eval_str("f_partition(\"word\", 4)").as_int();
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 4);
  EXPECT_THROW(eval_str("f_partition(\"word\", 0)"), EvalError);
}

TEST(Builtins, IpIntConversionsAreInverse) {
  EXPECT_EQ(eval_str("f_ip(f_ip_value(9.8.7.6))").as_ip().to_string(),
            "9.8.7.6");
}

TEST(Builtins, UnknownFunctionThrows) {
  EXPECT_THROW(eval_str("f_nope(1)"), EvalError);
}

// ---------------------------------------------------------------- parser --

constexpr const char* kSwitchProgram = R"(
  // Minimal one-switch forwarding model.
  table packet(3) base immutable event.
  table flowEntry(4) keys(0, 2) base mutable.
  table packetOut(3) derived event.

  rule r1 argmax Prio
    packetOut(@Next, Pkt, Dst) :-
      packet(@Sw, Pkt, Dst),
      flowEntry(@Sw, Prio, Prefix, Next),
      f_matches(Dst, Prefix) == 1.
)";

TEST(Parser, ParsesSwitchProgram) {
  const Program program = parse_program(kSwitchProgram);
  EXPECT_EQ(program.tables().size(), 3u);
  ASSERT_EQ(program.rules().size(), 1u);
  const Rule& rule = program.rules()[0];
  EXPECT_EQ(rule.name, "r1");
  ASSERT_TRUE(rule.argmax_var.has_value());
  EXPECT_EQ(*rule.argmax_var, "Prio");
  EXPECT_EQ(rule.body.size(), 2u);
  EXPECT_EQ(rule.constraints.size(), 1u);
  EXPECT_TRUE(program.table("packet").is_event());
  EXPECT_EQ(program.table("packet").mutability, Mutability::kImmutable);
  EXPECT_EQ(program.table("flowEntry").key_columns,
            (std::vector<std::size_t>{0, 2}));
}

TEST(Parser, RoundTripsThroughToString) {
  const Program program = parse_program(kSwitchProgram);
  const Program reparsed = parse_program(program.to_string());
  EXPECT_EQ(program.to_string(), reparsed.to_string());
}

TEST(Parser, AssignmentsAndConstants) {
  const Program program = parse_program(R"(
    table a(2) base.
    table b(3) derived.
    rule r1 b(@N, X2, "tag") :- a(@N, X), X2 := X * 2 + 1, X > 0.
  )");
  const Rule& rule = program.rules()[0];
  ASSERT_EQ(rule.assigns.size(), 1u);
  EXPECT_EQ(rule.assigns[0].var, "X2");
  EXPECT_EQ(rule.constraints.size(), 1u);
}

TEST(Parser, AnonymousVariablesGetFreshNames) {
  const Program program = parse_program(R"(
    table a(3) base.
    table b(2) derived.
    rule r1 b(@N, 1) :- a(@N, _, _).
  )");
  const BodyAtom& atom = program.rules()[0].body[0];
  EXPECT_NE(atom.args[1].var, atom.args[2].var);
}

TEST(Parser, RejectsNonLocalizedRule) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table b(2) base.
    table c(2) derived.
    rule r1 c(@N, 1) :- a(@N, X), b(@M, X).
  )"),
               ProgramError);
}

TEST(Parser, RejectsUnboundHeadVariable) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table c(2) derived.
    rule r1 c(@N, Y) :- a(@N, X).
  )"),
               ProgramError);
}

TEST(Parser, RejectsHeadIntoBaseTable) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table b(2) base.
    rule r1 b(@N, X) :- a(@N, X).
  )"),
               ProgramError);
}

TEST(Parser, RejectsArityMismatch) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table c(2) derived.
    rule r1 c(@N, X, X) :- a(@N, X).
  )"),
               ProgramError);
}

TEST(Parser, RejectsDuplicateRuleNames) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table c(2) derived.
    rule r1 c(@N, X) :- a(@N, X).
    rule r1 c(@N, X) :- a(@N, X).
  )"),
               ProgramError);
}

TEST(Parser, RejectsUnboundAssignmentInput) {
  EXPECT_THROW(parse_program(R"(
    table a(2) base.
    table c(2) derived.
    rule r1 c(@N, Y) :- a(@N, X), Y := Z + 1.
  )"),
               ProgramError);
}

TEST(Program, RulesListeningToIndex) {
  const Program program = parse_program(kSwitchProgram);
  EXPECT_EQ(program.rules_listening_to("packet").size(), 1u);
  EXPECT_EQ(program.rules_listening_to("flowEntry").size(), 1u);
  EXPECT_TRUE(program.rules_listening_to("packetOut").empty());
}

}  // namespace
}  // namespace dp

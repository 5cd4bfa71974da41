// The Verilog parser against the one it replaced. parse_verilog lexes
// string_view tokens and classifies keywords and punctuation once per
// token; the reference below is the earlier parser, kept verbatim, which
// built a std::string per token and compared every keyword and mark as a
// string. Both must return the same ParseResult (ok, error text, line) and
// build the same Design, on the emitted text of every tech node and on a
// seeded corpus of mutations of it.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/cell_library.h"
#include "netlist/generator.h"
#include "netlist/netlist.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "tech/tech_node.h"
#include "util/rng.h"
#include "util/strings.h"

namespace vcoadc::netlist::reference {

// --- the earlier parser, verbatim but for its entry point's name ----------

namespace {

enum class TokKind { kIdent, kPunct, kString, kEof };

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int line = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token tok;
    tok.line = line_;
    if (pos_ >= text_.size()) return tok;  // kEof
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '\\') {
      tok.kind = TokKind::kIdent;
      // Escaped identifiers (\foo ) end at whitespace.
      if (c == '\\') {
        ++pos_;
        while (pos_ < text_.size() &&
               !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
          tok.text += text_[pos_++];
        }
        return tok;
      }
      while (pos_ < text_.size()) {
        const char d = text_[pos_];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' ||
            d == '$') {
          tok.text += d;
          ++pos_;
        } else {
          break;
        }
      }
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      tok.kind = TokKind::kIdent;  // numeric literals treated as idents
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '\'' || text_[pos_] == '_')) {
        tok.text += text_[pos_++];
      }
      return tok;
    }
    if (c == '"') {
      tok.kind = TokKind::kString;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        tok.text += text_[pos_++];
      }
      if (pos_ < text_.size()) ++pos_;  // closing quote
      return tok;
    }
    // Attribute delimiters are two-char tokens.
    if (c == '(' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
      tok.kind = TokKind::kPunct;
      tok.text = "(*";
      pos_ += 2;
      return tok;
    }
    if (c == '*' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ')') {
      tok.kind = TokKind::kPunct;
      tok.text = "*)";
      pos_ += 2;
      return tok;
    }
    tok.kind = TokKind::kPunct;
    tok.text = std::string(1, c);
    ++pos_;
    return tok;
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(const std::string& text, Design& design)
      : lexer_(text), design_(design) {
    advance();
  }

  ParseResult run() {
    while (cur_.kind != TokKind::kEof && ok_) {
      if (is_ident("module")) {
        parse_module();
      } else {
        fail("expected 'module'");
      }
    }
    ParseResult res;
    res.ok = ok_;
    res.error = error_;
    res.line = error_line_;
    return res;
  }

 private:
  void advance() { cur_ = lexer_.next(); }

  bool is_ident(const char* kw) const {
    return cur_.kind == TokKind::kIdent && cur_.text == kw;
  }
  bool is_punct(const char* p) const {
    return cur_.kind == TokKind::kPunct && cur_.text == p;
  }

  void fail(const std::string& msg) {
    if (!ok_) return;
    ok_ = false;
    error_ = msg + " (got '" + cur_.text + "')";
    error_line_ = cur_.line;
    cur_ = Token{};  // force EOF to stop the loop
  }

  static bool is_keyword(const std::string& s) {
    return s == "module" || s == "endmodule" || s == "input" ||
           s == "output" || s == "inout" || s == "wire";
  }

  std::string expect_ident(const char* what) {
    if (cur_.kind != TokKind::kIdent) {
      fail(std::string("expected ") + what);
      return {};
    }
    if (is_keyword(cur_.text)) {
      fail(std::string("expected ") + what +
           " but found keyword (missing ';'?)");
      return {};
    }
    std::string s = cur_.text;
    advance();
    return s;
  }

  void expect_punct(const char* p) {
    if (!is_punct(p)) {
      fail(std::string("expected '") + p + "'");
      return;
    }
    advance();
  }

  void parse_module() {
    advance();  // 'module'
    const std::string name = expect_ident("module name");
    if (!ok_) return;
    Module& mod = design_.add_module(name);
    std::vector<std::string> header_ports;
    if (is_punct("(")) {
      advance();
      while (ok_ && !is_punct(")")) {
        header_ports.push_back(expect_ident("port name"));
        if (is_punct(",")) advance();
      }
      expect_punct(")");
    }
    expect_punct(";");

    // Body. Directions fill in as declarations are seen; header ports
    // without a declaration default to inout.
    std::map<std::string, PortDir> dirs;
    std::string pending_pd, pending_group;
    while (ok_ && !is_ident("endmodule")) {
      if (cur_.kind == TokKind::kEof) {
        fail("unexpected end of file inside module");
        return;
      }
      if (is_ident("input") || is_ident("output") || is_ident("inout")) {
        const PortDir dir = is_ident("input")    ? PortDir::kInput
                            : is_ident("output") ? PortDir::kOutput
                                                 : PortDir::kInout;
        advance();
        while (ok_ && !is_punct(";")) {
          const std::string port = expect_ident("port name");
          dirs[port] = dir;
          if (is_punct(",")) advance();
        }
        expect_punct(";");
      } else if (is_ident("wire")) {
        advance();
        while (ok_ && !is_punct(";")) {
          mod.add_net(expect_ident("net name"));
          if (is_punct(",")) advance();
        }
        expect_punct(";");
      } else if (is_punct("(*")) {
        advance();
        while (ok_ && !is_punct("*)")) {
          const std::string key = expect_ident("attribute name");
          std::string value;
          if (is_punct("=")) {
            advance();
            if (cur_.kind == TokKind::kString ||
                cur_.kind == TokKind::kIdent) {
              value = cur_.text;
              advance();
            } else {
              fail("expected attribute value");
            }
          }
          if (key == "power_domain") pending_pd = value;
          if (key == "group") pending_group = value;
          if (is_punct(",")) advance();
        }
        expect_punct("*)");
      } else if (cur_.kind == TokKind::kIdent) {
        // Instance: <master> <name> ( .pin(net), ... );
        Instance inst;
        inst.master = expect_ident("master name");
        inst.name = expect_ident("instance name");
        inst.power_domain = pending_pd;
        inst.group = pending_group;
        pending_pd.clear();
        pending_group.clear();
        expect_punct("(");
        while (ok_ && !is_punct(")")) {
          expect_punct(".");
          const std::string pin = expect_ident("pin name");
          expect_punct("(");
          const std::string net = expect_ident("net name");
          expect_punct(")");
          inst.conn[pin] = net;
          if (is_punct(",")) advance();
        }
        expect_punct(")");
        expect_punct(";");
        if (ok_) mod.add_instance(std::move(inst));
      } else {
        fail("unexpected token in module body");
      }
    }
    if (!ok_) return;
    advance();  // 'endmodule'

    for (const std::string& port : header_ports) {
      auto it = dirs.find(port);
      mod.add_port(port, it != dirs.end() ? it->second : PortDir::kInout);
    }
    if (design_.top().empty()) design_.set_top(name);
    last_module_ = name;
  }

  Lexer lexer_;
  Design& design_;
  Token cur_;
  bool ok_ = true;
  std::string error_;
  int error_line_ = 0;
  std::string last_module_;
};

}  // namespace

ParseResult reference_parse_verilog(const std::string& text, Design& design) {
  const bool had_top = !design.top().empty();
  Parser parser(text, design);
  ParseResult res = parser.run();
  if (res.ok && !had_top && !design.modules().empty()) {
    design.set_top(design.modules().back().name());
  }
  return res;
}

}  // namespace vcoadc::netlist::reference

namespace vcoadc::netlist {
namespace {

/// Both parsers over `text`, each into a fresh Design: the ParseResults and
/// every parsed field must agree.
void expect_same_parse(const std::string& text, const CellLibrary& lib) {
  Design got(&lib);
  Design want(&lib);
  const ParseResult g = parse_verilog(text, got);
  const ParseResult w = reference::reference_parse_verilog(text, want);
  ASSERT_EQ(g.ok, w.ok);
  ASSERT_EQ(g.error, w.error);
  ASSERT_EQ(g.line, w.line);
  ASSERT_EQ(got.top(), want.top());
  ASSERT_EQ(got.modules().size(), want.modules().size());
  for (std::size_t m = 0; m < got.modules().size(); ++m) {
    const Module& gm = got.modules()[m];
    const Module& wm = want.modules()[m];
    SCOPED_TRACE(wm.name());
    ASSERT_EQ(gm.name(), wm.name());
    ASSERT_EQ(gm.ports().size(), wm.ports().size());
    for (std::size_t p = 0; p < gm.ports().size(); ++p) {
      ASSERT_EQ(gm.ports()[p].name, wm.ports()[p].name);
      ASSERT_EQ(gm.ports()[p].dir, wm.ports()[p].dir);
    }
    ASSERT_EQ(gm.nets(), wm.nets());
    ASSERT_EQ(gm.instances().size(), wm.instances().size());
    for (std::size_t i = 0; i < gm.instances().size(); ++i) {
      const Instance& gi = gm.instances()[i];
      const Instance& wi = wm.instances()[i];
      ASSERT_EQ(gi.master, wi.master);
      ASSERT_EQ(gi.name, wi.name);
      ASSERT_EQ(gi.conn, wi.conn);
      ASSERT_EQ(gi.power_domain, wi.power_domain);
      ASSERT_EQ(gi.group, wi.group);
    }
  }
}

/// One emitted netlist: the library it elaborates against and its text.
struct Emitted {
  std::string label;
  CellLibrary lib;
  std::string text;
};

/// The writer's text for every tech node at two slice and two fragment
/// counts.
std::vector<Emitted> emitted_corpus() {
  std::vector<Emitted> out;
  for (const tech::TechNode& node : tech::TechDatabase::standard().nodes()) {
    CellLibrary lib = make_standard_library(node);
    add_resistor_cells(lib, node);
    for (const int slices : {3, 8}) {
      for (const int fragments : {1, 3}) {
        GeneratorConfig cfg;
        cfg.num_slices = slices;
        cfg.dac_fragments = fragments;
        const Design d = build_adc_design(lib, cfg);
        out.push_back({util::format("%s, %d slices, %d fragments",
                                    node.name.c_str(), slices, fragments),
                       lib, write_verilog(d)});
      }
    }
  }
  return out;
}

/// Where each token of `text` starts and ends, by a rough Verilog
/// tokenizer: identifier runs and single marks.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  auto word = [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalnum(u) != 0 || c == '_' || c == '$' || c == '\\' ||
           c == '\'';
  };
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    if (word(text[i])) {
      while (j < text.size() && word(text[j])) ++j;
    }
    spans.emplace_back(i, j);
    i = j;
  }
  return spans;
}

/// One seeded mutation of `text`: a byte flip, a truncation, a deleted or
/// duplicated token, or an inserted comment or attribute.
std::string mutate(const std::string& text, util::Rng& rng) {
  if (text.empty()) return text;
  const auto spans = token_spans(text);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  std::string out = text;
  switch (rng.below(6)) {
    case 0: {  // flip one to eight bits of one byte
      const std::size_t at = pick(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 + pick(255)));
      break;
    }
    case 1:  // truncate
      out.resize(pick(out.size()));
      break;
    case 2: {  // delete a token
      const auto [b, e] = spans[pick(spans.size())];
      out.erase(b, e - b);
      break;
    }
    case 3: {  // duplicate a token
      const auto [b, e] = spans[pick(spans.size())];
      out.insert(e, " " + out.substr(b, e - b));
      break;
    }
    case 4: {  // insert a comment before a token
      static const char* const kComments[] = {
          "// note\n", "/* one line */", "/* two\nlines */", "/* open",
          "//", "/**/"};
      out.insert(spans[pick(spans.size())].first, kComments[pick(6)]);
      break;
    }
    default: {  // insert an attribute before a token
      static const char* const kAttrs[] = {
          "(* power_domain = \"PD_X\" *) ", "(* group = G1 *)",
          "(* power_domain = \"PD_Y\", group = \"G2\" *)\n", "(* *)",
          "(* keep *)", "(* power_domain = *)", "(* group = \"open"};
      out.insert(spans[pick(spans.size())].first, kAttrs[pick(7)]);
      break;
    }
  }
  return out;
}

TEST(VerilogParserReference, SameDesignOnEmittedTextOfEveryNode) {
  const std::vector<Emitted> corpus = emitted_corpus();
  ASSERT_GE(corpus.size(), 4u);
  for (const Emitted& e : corpus) {
    SCOPED_TRACE(e.label);
    expect_same_parse(e.text, e.lib);
    Design d(&e.lib);
    const ParseResult pr = parse_verilog(e.text, d);
    EXPECT_TRUE(pr.ok) << pr.error;
  }
}

TEST(VerilogParserReference, SameResultOnSeededMutationCorpus) {
  const std::vector<Emitted> corpus = emitted_corpus();
  util::Rng rng(24);
  int refused = 0;
  int total = 0;
  for (const Emitted& e : corpus) {
    for (int k = 0; k < 12; ++k) {
      // One to three mutations stacked on the emitted text.
      std::string text = e.text;
      const auto n = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < n; ++m) text = mutate(text, rng);
      SCOPED_TRACE(e.label + util::format(", mutant %d", k));
      expect_same_parse(text, e.lib);
      if (HasFatalFailure()) return;
      Design d(&e.lib);
      if (!parse_verilog(text, d).ok) ++refused;
      ++total;
    }
  }
  // The corpus reaches both outcomes, so it tests errors and structure.
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, total);
}

TEST(VerilogParserReference, SameResultOnHandPickedEdgeCases) {
  const CellLibrary lib("edge");
  for (const char* text : {
           "", "module", "module m", "module m(", "module m(;",
           "module m(A); input A; endmodule",
           "module m(A, B); wire A, B, A; endmodule",
           "module m(); wire endmodule",
           "module \\esc (A ); input A ; endmodule",
           "module m(A); output A; INV u (.A(A), .A(B)); endmodule",
           "module m; (* power_domain = \"PD\" *) X u (.P(N)); endmodule "
           "module m; wire W; endmodule",
           "module m(A); wire N; endmodule module m(B); wire N, A, M; "
           "endmodule",
           "module m; 12'hff u (.A(1'b0)); endmodule",
           "module m; X u (.A(N)) endmodule",
           "module m; \"str\" endmodule",
           "module m; X u (.A(\"s\")); endmodule",
           "module m(A); input A;\n/* unterminated",
           "module m(A); input A;\n// trailing", "\xff\xfe module",
           "module m(*); endmodule", "module m; (* a = (*) *) endmodule"}) {
    SCOPED_TRACE(text);
    expect_same_parse(text, lib);
  }
}

}  // namespace
}  // namespace vcoadc::netlist

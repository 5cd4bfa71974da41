#include "netlist/verilog_parser.h"

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace vcoadc::netlist {
namespace {

// Tokens are views into the parsed text, so lexing allocates nothing: only
// the names that end up in the Design are copied out. Keywords and
// punctuation are classified once, when their token is lexed, and the
// parser branches on those codes instead of comparing strings.

enum class TokKind { kIdent, kPunct, kString, kEof };

/// The identifiers the grammar treats as keywords (kNone for any other).
enum class Keyword : std::uint8_t {
  kNone,
  kModule,
  kEndmodule,
  kInput,
  kOutput,
  kInout,
  kWire
};

/// Punctuation codes: a single-character mark is its own byte value; the
/// two-character attribute delimiters get codes past the byte range.
constexpr int kAttrOpen = 256;   // "(*"
constexpr int kAttrClose = 257;  // "*)"

struct Token {
  TokKind kind = TokKind::kEof;
  std::string_view text;
  int line = 1;
  Keyword keyword = Keyword::kNone;  ///< kIdent only
  int punct = 0;                     ///< kPunct only
};

/// At most one comparison per identifier: the length and first letter
/// pick the only keyword it can be.
Keyword keyword_of(std::string_view s) {
  switch (s.size()) {
    case 4:
      return s == "wire" ? Keyword::kWire : Keyword::kNone;
    case 5:
      if (s[2] == 'p') return s == "input" ? Keyword::kInput : Keyword::kNone;
      return s == "inout" ? Keyword::kInout : Keyword::kNone;
    case 6:
      if (s[0] == 'm') {
        return s == "module" ? Keyword::kModule : Keyword::kNone;
      }
      return s == "output" ? Keyword::kOutput : Keyword::kNone;
    case 9:
      return s == "endmodule" ? Keyword::kEndmodule : Keyword::kNone;
    default:
      return Keyword::kNone;
  }
}

// Character classes of the "C" locale's <cctype> predicates, as one table
// lookup per byte (bytes past 0x7f are in no class).
enum CharClass : std::uint8_t {
  kSpace = 1,       // isspace
  kAlpha = 2,       // isalpha
  kDigit = 4,       // isdigit
  kIdentTail = 8,   // isalnum, '_' or '$'
  kNumberTail = 16  // isalnum, '\'' or '_'
};

constexpr std::array<std::uint8_t, 256> make_char_classes() {
  std::array<std::uint8_t, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha) t[c] |= kAlpha;
    if (digit) t[c] |= kDigit;
    if (alpha || digit) t[c] |= kIdentTail | kNumberTail;
  }
  t['_'] |= kIdentTail | kNumberTail;
  t['$'] |= kIdentTail;
  t['\''] |= kNumberTail;
  return t;
}

constexpr std::array<std::uint8_t, 256> kCharClasses = make_char_classes();

bool in_class(char c, std::uint8_t cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Lexes the next token into `tok`.
  void next(Token& tok) {
    skip_ws_and_comments();
    tok.line = line_;
    tok.keyword = Keyword::kNone;
    if (pos_ >= text_.size()) {
      tok.kind = TokKind::kEof;
      tok.text = {};
      return;
    }
    const std::size_t start = pos_;
    const char c = text_[pos_];
    if (in_class(c, kAlpha) || c == '_' || c == '\\') {
      tok.kind = TokKind::kIdent;
      if (c == '\\') {
        // Escaped identifiers (\foo ) end at whitespace.
        pos_ = scan(pos_ + 1, [](char d) { return !in_class(d, kSpace); });
        tok.text = text_.substr(start + 1, pos_ - start - 1);
      } else {
        pos_ = scan(pos_ + 1, [](char d) { return in_class(d, kIdentTail); });
        tok.text = text_.substr(start, pos_ - start);
      }
      tok.keyword = keyword_of(tok.text);
      return;
    }
    if (in_class(c, kDigit)) {
      tok.kind = TokKind::kIdent;  // numeric literals treated as idents
      pos_ = scan(pos_ + 1, [](char d) { return in_class(d, kNumberTail); });
      tok.text = text_.substr(start, pos_ - start);
      return;
    }
    if (c == '"') {
      tok.kind = TokKind::kString;
      pos_ = scan(pos_ + 1, [](char d) { return d != '"'; });
      tok.text = text_.substr(start + 1, pos_ - start - 1);
      if (pos_ < text_.size()) ++pos_;  // closing quote
      return;
    }
    tok.kind = TokKind::kPunct;
    // Attribute delimiters are two-char tokens.
    const char d = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    if ((c == '(' && d == '*') || (c == '*' && d == ')')) {
      tok.punct = c == '(' ? kAttrOpen : kAttrClose;
      tok.text = text_.substr(start, 2);
      pos_ += 2;
      return;
    }
    tok.punct = static_cast<unsigned char>(c);
    tok.text = text_.substr(start, 1);
    ++pos_;
  }

 private:
  /// The first position at or after `at` whose character fails `keep`
  /// (the text's end if none does).
  template <typename Keep>
  std::size_t scan(std::size_t at, Keep keep) const {
    const char* p = text_.data() + at;
    const char* const end = text_.data() + text_.size();
    while (p < end && keep(*p)) ++p;
    return static_cast<std::size_t>(p - text_.data());
  }

  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (in_class(c, kSpace)) {
        if (c == '\n') ++line_;
        ++pos_;
      } else if (c != '/' || pos_ + 1 >= text_.size()) {
        break;
      } else if (text_[pos_ + 1] == '/') {
        pos_ = scan(pos_, [](char d) { return d != '\n'; });
      } else if (text_[pos_ + 1] == '*') {
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

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(std::string_view text, Design& design)
      : lexer_(text), design_(design) {
    advance();
  }

  ParseResult run() {
    while (cur_.kind != TokKind::kEof && ok_) {
      if (is_ident(Keyword::kModule)) {
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
  void advance() { lexer_.next(cur_); }

  bool is_ident(Keyword kw) const {
    return cur_.kind == TokKind::kIdent && cur_.keyword == kw;
  }
  bool is_punct(int p) const {
    return cur_.kind == TokKind::kPunct && cur_.punct == p;
  }

  void fail(const std::string& msg) {
    if (!ok_) return;
    ok_ = false;
    error_ = msg + " (got '";
    error_.append(cur_.text);
    error_ += "')";
    error_line_ = cur_.line;
    cur_ = Token{};  // force EOF to stop the loop
  }

  std::string_view expect_ident(const char* what) {
    if (cur_.kind != TokKind::kIdent) {
      fail(std::string("expected ") + what);
      return {};
    }
    if (cur_.keyword != Keyword::kNone) {
      fail(std::string("expected ") + what +
           " but found keyword (missing ';'?)");
      return {};
    }
    const std::string_view s = cur_.text;
    advance();
    return s;
  }

  /// `p` names the mark in the error message; `code` is its token code.
  void expect_punct(const char* p, int code) {
    if (!is_punct(code)) {
      fail(std::string("expected '") + p + "'");
      return;
    }
    advance();
  }
  void expect_punct(char p) {
    const char mark[2] = {p, '\0'};
    expect_punct(mark, static_cast<unsigned char>(p));
  }

  void parse_module() {
    advance();  // 'module'
    const std::string name(expect_ident("module name"));
    if (!ok_) return;
    Module& mod = design_.add_module(name);
    std::vector<std::string_view> header_ports;
    if (is_punct('(')) {
      advance();
      while (ok_ && !is_punct(')')) {
        header_ports.push_back(expect_ident("port name"));
        if (is_punct(',')) advance();
      }
      expect_punct(')');
    }
    expect_punct(';');

    // Body. Directions fill in as declarations are seen; header ports
    // without a declaration default to inout.
    std::map<std::string_view, PortDir> dirs;
    std::string_view pending_pd, pending_group;
    // add_net scans the module's nets and ports on every call. A module
    // without either (ports are added after the body) indexes its wire
    // names here instead; one the text declares twice keeps the scan.
    const bool fresh = mod.nets().empty() && mod.ports().empty();
    std::unordered_set<std::string_view> wires;
    while (ok_ && !is_ident(Keyword::kEndmodule)) {
      if (cur_.kind == TokKind::kEof) {
        fail("unexpected end of file inside module");
        return;
      }
      const Keyword kw =
          cur_.kind == TokKind::kIdent ? cur_.keyword : Keyword::kNone;
      if (kw == Keyword::kInput || kw == Keyword::kOutput ||
          kw == Keyword::kInout) {
        const PortDir dir = kw == Keyword::kInput    ? PortDir::kInput
                            : kw == Keyword::kOutput ? PortDir::kOutput
                                                     : PortDir::kInout;
        advance();
        while (ok_ && !is_punct(';')) {
          dirs[expect_ident("port name")] = dir;
          if (is_punct(',')) advance();
        }
        expect_punct(';');
      } else if (kw == Keyword::kWire) {
        advance();
        while (ok_ && !is_punct(';')) {
          const std::string_view net = expect_ident("net name");
          if (!fresh) {
            mod.add_net(std::string(net));
          } else if (wires.insert(net).second) {
            mod.append_net(std::string(net));
          }
          if (is_punct(',')) advance();
        }
        expect_punct(';');
      } else if (is_punct(kAttrOpen)) {
        advance();
        while (ok_ && !is_punct(kAttrClose)) {
          const std::string_view key = expect_ident("attribute name");
          std::string_view value;
          if (is_punct('=')) {
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
          if (is_punct(',')) advance();
        }
        expect_punct("*)", kAttrClose);
      } else if (cur_.kind == TokKind::kIdent) {
        // Instance: <master> <name> ( .pin(net), ... );
        Instance inst;
        inst.master = expect_ident("master name");
        inst.name = expect_ident("instance name");
        inst.power_domain = pending_pd;
        inst.group = pending_group;
        pending_pd = {};
        pending_group = {};
        expect_punct('(');
        while (ok_ && !is_punct(')')) {
          expect_punct('.');
          const std::string_view pin = expect_ident("pin name");
          expect_punct('(');
          const std::string_view net = expect_ident("net name");
          expect_punct(')');
          // The writer emits pins in map order, so the end is the hint.
          inst.conn.insert_or_assign(inst.conn.end(), std::string(pin),
                                     std::string(net));
          if (is_punct(',')) advance();
        }
        expect_punct(')');
        expect_punct(';');
        if (ok_) mod.add_instance(std::move(inst));
      } else {
        fail("unexpected token in module body");
      }
    }
    if (!ok_) return;
    advance();  // 'endmodule'

    for (const std::string_view port : header_ports) {
      auto it = dirs.find(port);
      mod.add_port(std::string(port),
                   it != dirs.end() ? it->second : PortDir::kInout);
    }
    if (design_.top().empty()) design_.set_top(name);
  }

  Lexer lexer_;
  Design& design_;
  Token cur_;
  bool ok_ = true;
  std::string error_;
  int error_line_ = 0;
};

}  // namespace

ParseResult parse_verilog(const std::string& text, Design& design) {
  const bool had_top = !design.top().empty();
  Parser parser(text, design);
  ParseResult res = parser.run();
  if (res.ok && !had_top && !design.modules().empty()) {
    design.set_top(design.modules().back().name());
  }
  return res;
}

}  // namespace vcoadc::netlist

#include "regex/regex.h"

#include <memory>

#include "util/logging.h"
#include "util/string_util.h"

namespace koko {

namespace {

// Parse-tree node for patterns. The tree is expanded (bounded repeats are
// unrolled) before NFA code generation.
struct Node {
  enum class Kind {
    kChar,    // character class
    kConcat,  // children in sequence
    kAlt,     // children are alternatives
    kStar,    // zero or more of child 0; `greedy` ignored (match-only engine)
    kPlus,
    kOpt,
    kBol,
    kEol,
    kEmpty,
  };
  Kind kind = Kind::kEmpty;
  std::bitset<256> klass;
  std::vector<std::unique_ptr<Node>> children;
};

using NodePtr = std::unique_ptr<Node>;

NodePtr MakeNode(Node::Kind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

NodePtr CloneNode(const Node& n) {
  auto c = std::make_unique<Node>();
  c->kind = n.kind;
  c->klass = n.klass;
  for (const auto& child : n.children) c->children.push_back(CloneNode(*child));
  return c;
}

std::bitset<256> DigitClass() {
  std::bitset<256> k;
  for (int c = '0'; c <= '9'; ++c) k.set(c);
  return k;
}

std::bitset<256> WordClass() {
  std::bitset<256> k = DigitClass();
  for (int c = 'a'; c <= 'z'; ++c) k.set(c);
  for (int c = 'A'; c <= 'Z'; ++c) k.set(c);
  k.set('_');
  return k;
}

std::bitset<256> SpaceClass() {
  std::bitset<256> k;
  for (char c : {' ', '\t', '\n', '\r', '\f', '\v'}) k.set(static_cast<unsigned char>(c));
  return k;
}

// Recursive-descent pattern parser producing a Node tree.
class PatternParser {
 public:
  explicit PatternParser(std::string_view pattern) : pattern_(pattern) {}

  Result<NodePtr> Parse() {
    auto node = ParseAlt();
    if (!node.ok()) return node.status();
    if (pos_ != pattern_.size()) {
      return Status::ParseError("unexpected '" + std::string(1, pattern_[pos_]) +
                                "' at offset " + std::to_string(pos_) + " in regex '" +
                                std::string(pattern_) + "'");
    }
    return node;
  }

 private:
  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return pattern_[pos_]; }
  char Take() { return pattern_[pos_++]; }

  Result<NodePtr> ParseAlt() {
    auto first = ParseConcat();
    if (!first.ok()) return first.status();
    if (AtEnd() || Peek() != '|') return first;
    auto alt = MakeNode(Node::Kind::kAlt);
    alt->children.push_back(std::move(*first));
    while (!AtEnd() && Peek() == '|') {
      Take();
      auto next = ParseConcat();
      if (!next.ok()) return next.status();
      alt->children.push_back(std::move(*next));
    }
    return NodePtr(std::move(alt));
  }

  Result<NodePtr> ParseConcat() {
    auto concat = MakeNode(Node::Kind::kConcat);
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      auto piece = ParsePiece();
      if (!piece.ok()) return piece.status();
      concat->children.push_back(std::move(*piece));
    }
    if (concat->children.empty()) return NodePtr(MakeNode(Node::Kind::kEmpty));
    if (concat->children.size() == 1) return NodePtr(std::move(concat->children[0]));
    return NodePtr(std::move(concat));
  }

  Result<NodePtr> ParsePiece() {
    auto atom = ParseAtom();
    if (!atom.ok()) return atom.status();
    NodePtr node = std::move(*atom);
    while (!AtEnd()) {
      char c = Peek();
      if (c == '*' || c == '+' || c == '?') {
        Take();
        auto rep = MakeNode(c == '*'   ? Node::Kind::kStar
                            : c == '+' ? Node::Kind::kPlus
                                       : Node::Kind::kOpt);
        rep->children.push_back(std::move(node));
        node = std::move(rep);
      } else if (c == '{') {
        auto bounded = ParseBoundedRepeat(std::move(node));
        if (!bounded.ok()) return bounded.status();
        node = std::move(*bounded);
      } else {
        break;
      }
    }
    return node;
  }

  // Unrolls x{m,n} into m copies followed by (n-m) optional copies, and
  // x{m,} into m copies followed by x*.
  Result<NodePtr> ParseBoundedRepeat(NodePtr base) {
    KOKO_CHECK(Peek() == '{');
    size_t save = pos_;
    Take();
    int lo = 0;
    bool has_lo = false;
    while (!AtEnd() && IsAsciiDigit(Peek())) {
      lo = lo * 10 + (Take() - '0');
      has_lo = true;
      if (lo > 512) return Status::ParseError("repeat bound too large");
    }
    if (!has_lo) {
      // Not a repeat after all (e.g. a literal '{'): back off.
      pos_ = save;
      auto lit = MakeNode(Node::Kind::kChar);
      lit->klass.set(static_cast<unsigned char>(Take()));
      auto concat = MakeNode(Node::Kind::kConcat);
      concat->children.push_back(std::move(base));
      concat->children.push_back(std::move(lit));
      return NodePtr(std::move(concat));
    }
    int hi = lo;
    bool unbounded = false;
    if (!AtEnd() && Peek() == ',') {
      Take();
      if (!AtEnd() && Peek() == '}') {
        unbounded = true;
      } else {
        hi = 0;
        while (!AtEnd() && IsAsciiDigit(Peek())) {
          hi = hi * 10 + (Take() - '0');
          if (hi > 512) return Status::ParseError("repeat bound too large");
        }
      }
    }
    if (AtEnd() || Take() != '}') return Status::ParseError("unterminated {m,n}");
    if (!unbounded && hi < lo) return Status::ParseError("bad repeat range {m,n} with n<m");

    auto concat = MakeNode(Node::Kind::kConcat);
    for (int i = 0; i < lo; ++i) concat->children.push_back(CloneNode(*base));
    if (unbounded) {
      auto star = MakeNode(Node::Kind::kStar);
      star->children.push_back(CloneNode(*base));
      concat->children.push_back(std::move(star));
    } else {
      for (int i = lo; i < hi; ++i) {
        auto opt = MakeNode(Node::Kind::kOpt);
        opt->children.push_back(CloneNode(*base));
        concat->children.push_back(std::move(opt));
      }
    }
    if (concat->children.empty()) return NodePtr(MakeNode(Node::Kind::kEmpty));
    if (concat->children.size() == 1) return NodePtr(std::move(concat->children[0]));
    return NodePtr(std::move(concat));
  }

  Result<NodePtr> ParseAtom() {
    if (AtEnd()) return Status::ParseError("dangling operator in regex");
    char c = Take();
    switch (c) {
      case '(': {
        auto inner = ParseAlt();
        if (!inner.ok()) return inner.status();
        if (AtEnd() || Take() != ')') return Status::ParseError("unbalanced '('");
        return inner;
      }
      case '[':
        return ParseClass();
      case '.': {
        auto node = MakeNode(Node::Kind::kChar);
        node->klass.set();
        node->klass.reset('\n');
        return NodePtr(std::move(node));
      }
      case '^':
        return NodePtr(MakeNode(Node::Kind::kBol));
      case '$':
        return NodePtr(MakeNode(Node::Kind::kEol));
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Status::ParseError("quantifier with nothing to repeat");
      default: {
        auto node = MakeNode(Node::Kind::kChar);
        node->klass.set(static_cast<unsigned char>(c));
        return NodePtr(std::move(node));
      }
    }
  }

  Result<NodePtr> ParseEscape() {
    if (AtEnd()) return Status::ParseError("trailing backslash");
    char c = Take();
    auto node = MakeNode(Node::Kind::kChar);
    switch (c) {
      case 'd':
        node->klass = DigitClass();
        break;
      case 'D':
        node->klass = ~DigitClass();
        break;
      case 'w':
        node->klass = WordClass();
        break;
      case 'W':
        node->klass = ~WordClass();
        break;
      case 's':
        node->klass = SpaceClass();
        break;
      case 'S':
        node->klass = ~SpaceClass();
        break;
      case 'n':
        node->klass.set('\n');
        break;
      case 't':
        node->klass.set('\t');
        break;
      case 'r':
        node->klass.set('\r');
        break;
      default:
        // Escaped literal (covers \. \[ \( \\ etc.).
        node->klass.set(static_cast<unsigned char>(c));
        break;
    }
    return NodePtr(std::move(node));
  }

  Result<NodePtr> ParseClass() {
    auto node = MakeNode(Node::Kind::kChar);
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      Take();
      negate = true;
    }
    bool first = true;
    while (true) {
      if (AtEnd()) return Status::ParseError("unterminated character class");
      char c = Take();
      if (c == ']' && !first) break;
      first = false;
      std::bitset<256> piece;
      if (c == '\\') {
        if (AtEnd()) return Status::ParseError("trailing backslash in class");
        char e = Take();
        switch (e) {
          case 'd': piece = DigitClass(); break;
          case 'w': piece = WordClass(); break;
          case 's': piece = SpaceClass(); break;
          case 'n': piece.set('\n'); break;
          case 't': piece.set('\t'); break;
          case 'r': piece.set('\r'); break;
          default: piece.set(static_cast<unsigned char>(e)); break;
        }
        node->klass |= piece;
        continue;
      }
      // Possible range c-hi.
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        Take();  // '-'
        char hi = Take();
        if (hi == '\\') {
          if (AtEnd()) return Status::ParseError("trailing backslash in class");
          hi = Take();
        }
        if (static_cast<unsigned char>(hi) < static_cast<unsigned char>(c)) {
          return Status::ParseError("inverted range in character class");
        }
        for (int r = static_cast<unsigned char>(c);
             r <= static_cast<unsigned char>(hi); ++r) {
          node->klass.set(static_cast<size_t>(r));
        }
      } else {
        node->klass.set(static_cast<unsigned char>(c));
      }
    }
    if (negate) node->klass = ~node->klass;
    return NodePtr(std::move(node));
  }

  std::string_view pattern_;
  size_t pos_ = 0;
};

}  // namespace

// Compiles the parse tree into NFA instructions. Kept as a friend class so
// Regex::Inst stays private.
class RegexCompiler {
 public:
  static void Emit(const Node& node, Regex* re) {
    Compile(node, re);
    Regex::Inst match;
    match.op = Regex::Inst::Op::kMatch;
    re->program_.push_back(match);
  }

 private:
  using Op = Regex::Inst::Op;

  static uint32_t Here(Regex* re) { return static_cast<uint32_t>(re->program_.size()); }

  static void Compile(const Node& node, Regex* re) {
    switch (node.kind) {
      case Node::Kind::kEmpty:
        break;
      case Node::Kind::kChar: {
        Regex::Inst inst;
        inst.op = Op::kChar;
        inst.klass = node.klass;
        inst.next = Here(re) + 1;
        re->program_.push_back(inst);
        break;
      }
      case Node::Kind::kBol: {
        Regex::Inst inst;
        inst.op = Op::kAssertBol;
        inst.next = Here(re) + 1;
        re->program_.push_back(inst);
        break;
      }
      case Node::Kind::kEol: {
        Regex::Inst inst;
        inst.op = Op::kAssertEol;
        inst.next = Here(re) + 1;
        re->program_.push_back(inst);
        break;
      }
      case Node::Kind::kConcat:
        for (const auto& child : node.children) Compile(*child, re);
        break;
      case Node::Kind::kAlt: {
        // Chain of splits; each branch jumps to the common end.
        std::vector<uint32_t> jumps;
        std::vector<uint32_t> splits;
        for (size_t i = 0; i < node.children.size(); ++i) {
          uint32_t split_pc = 0;
          if (i + 1 < node.children.size()) {
            split_pc = Here(re);
            Regex::Inst split;
            split.op = Op::kSplit;
            split.next = split_pc + 1;
            re->program_.push_back(split);
            splits.push_back(split_pc);
          }
          Compile(*node.children[i], re);
          if (i + 1 < node.children.size()) {
            uint32_t jmp_pc = Here(re);
            Regex::Inst jmp;
            jmp.op = Op::kJmp;
            re->program_.push_back(jmp);
            jumps.push_back(jmp_pc);
            re->program_[splits.back()].alt = Here(re);
          }
        }
        uint32_t end = Here(re);
        for (uint32_t pc : jumps) re->program_[pc].next = end;
        break;
      }
      case Node::Kind::kStar: {
        uint32_t split_pc = Here(re);
        Regex::Inst split;
        split.op = Op::kSplit;
        split.next = split_pc + 1;
        re->program_.push_back(split);
        Compile(*node.children[0], re);
        Regex::Inst jmp;
        jmp.op = Op::kJmp;
        jmp.next = split_pc;
        re->program_.push_back(jmp);
        re->program_[split_pc].alt = Here(re);
        break;
      }
      case Node::Kind::kPlus: {
        uint32_t body_pc = Here(re);
        Compile(*node.children[0], re);
        uint32_t split_pc = Here(re);
        Regex::Inst split;
        split.op = Op::kSplit;
        split.next = body_pc;
        split.alt = split_pc + 1;
        re->program_.push_back(split);
        break;
      }
      case Node::Kind::kOpt: {
        uint32_t split_pc = Here(re);
        Regex::Inst split;
        split.op = Op::kSplit;
        split.next = split_pc + 1;
        re->program_.push_back(split);
        Compile(*node.children[0], re);
        re->program_[split_pc].alt = Here(re);
        break;
      }
    }
  }
};

Result<Regex> Regex::Compile(std::string_view pattern) {
  PatternParser parser(pattern);
  auto tree = parser.Parse();
  if (!tree.ok()) return tree.status();
  Regex re;
  re.pattern_ = std::string(pattern);
  RegexCompiler::Emit(**tree, &re);
  return re;
}

void Regex::AddThread(std::vector<uint32_t>& list, std::vector<uint32_t>& marks,
                      uint32_t generation, uint32_t pc, size_t pos, size_t len) const {
  // Iterative epsilon-closure with an explicit stack.
  std::vector<uint32_t> stack = {pc};
  while (!stack.empty()) {
    uint32_t p = stack.back();
    stack.pop_back();
    if (marks[p] == generation) continue;
    marks[p] = generation;
    const Inst& inst = program_[p];
    switch (inst.op) {
      case Inst::Op::kJmp:
        stack.push_back(inst.next);
        break;
      case Inst::Op::kSplit:
        stack.push_back(inst.next);
        stack.push_back(inst.alt);
        break;
      case Inst::Op::kAssertBol:
        if (pos == 0) stack.push_back(inst.next);
        break;
      case Inst::Op::kAssertEol:
        if (pos == len) stack.push_back(inst.next);
        break;
      default:
        list.push_back(p);
        break;
    }
  }
}

bool Regex::Run(std::string_view text, bool anchored_start) const {
  const size_t len = text.size();
  std::vector<uint32_t> current, next;
  std::vector<uint32_t> marks(program_.size(), 0);
  uint32_t generation = 1;

  AddThread(current, marks, generation, 0, 0, len);

  for (size_t pos = 0; pos <= len; ++pos) {
    // Check for an accepting thread.
    for (uint32_t pc : current) {
      if (program_[pc].op == Inst::Op::kMatch) return true;
    }
    if (pos == len) break;
    unsigned char c = static_cast<unsigned char>(text[pos]);
    next.clear();
    ++generation;
    for (uint32_t pc : current) {
      const Inst& inst = program_[pc];
      if (inst.op == Inst::Op::kChar && inst.klass.test(c)) {
        AddThread(next, marks, generation, inst.next, pos + 1, len);
      }
    }
    if (!anchored_start) {
      // Unanchored search: also start a fresh attempt at pos+1.
      AddThread(next, marks, generation, 0, pos + 1, len);
    }
    current.swap(next);
    if (current.empty() && anchored_start) return false;
  }
  for (uint32_t pc : current) {
    if (program_[pc].op == Inst::Op::kMatch) return true;
  }
  return false;
}

bool Regex::FullMatch(std::string_view text) const {
  // Full match = anchored run where only threads that consumed the entire
  // input may accept. We get this by running anchored and checking accept
  // only at the end: simplest is to simulate with a sentinel requiring
  // pos == len at accept time. Reuse Run with a wrapper: accept early only
  // if remaining input can be consumed — instead we do a dedicated loop.
  const size_t len = text.size();
  std::vector<uint32_t> current, next;
  std::vector<uint32_t> marks(program_.size(), 0);
  uint32_t generation = 1;
  AddThread(current, marks, generation, 0, 0, len);
  for (size_t pos = 0; pos < len; ++pos) {
    unsigned char c = static_cast<unsigned char>(text[pos]);
    next.clear();
    ++generation;
    for (uint32_t pc : current) {
      const Inst& inst = program_[pc];
      if (inst.op == Inst::Op::kChar && inst.klass.test(c)) {
        AddThread(next, marks, generation, inst.next, pos + 1, len);
      }
    }
    current.swap(next);
    if (current.empty()) return false;
  }
  for (uint32_t pc : current) {
    if (program_[pc].op == Inst::Op::kMatch) return true;
  }
  return false;
}

bool Regex::PartialMatch(std::string_view text) const { return Run(text, false); }

bool RegexFullMatch(std::string_view text, std::string_view pattern) {
  auto re = Regex::Compile(pattern);
  KOKO_CHECK(re.ok());
  return re->FullMatch(text);
}

bool RegexPartialMatch(std::string_view text, std::string_view pattern) {
  auto re = Regex::Compile(pattern);
  KOKO_CHECK(re.ok());
  return re->PartialMatch(text);
}

}  // namespace koko

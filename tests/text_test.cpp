#include <gtest/gtest.h>

#include "text/annotations.h"
#include "text/document.h"
#include "text/lexicon.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/rng.h"

namespace koko {
namespace {

TEST(AnnotationsTest, PosRoundTrip) {
  for (int i = 0; i < kNumPosTags; ++i) {
    PosTag tag = static_cast<PosTag>(i);
    PosTag parsed;
    ASSERT_TRUE(ParsePosTag(PosTagName(tag), &parsed));
    EXPECT_EQ(parsed, tag);
  }
}

TEST(AnnotationsTest, DepRoundTrip) {
  for (int i = 0; i < kNumDepLabels; ++i) {
    DepLabel label = static_cast<DepLabel>(i);
    DepLabel parsed;
    ASSERT_TRUE(ParseDepLabel(DepLabelName(label), &parsed));
    EXPECT_EQ(parsed, label);
  }
}

TEST(AnnotationsTest, EntityRoundTrip) {
  for (int i = 0; i < kNumEntityTypes; ++i) {
    EntityType type = static_cast<EntityType>(i);
    EntityType parsed;
    ASSERT_TRUE(ParseEntityType(EntityTypeName(type), &parsed));
    EXPECT_EQ(parsed, type);
  }
}

TEST(AnnotationsTest, CaseInsensitiveAndAliases) {
  PosTag pos;
  EXPECT_TRUE(ParsePosTag("NOUN", &pos));
  EXPECT_EQ(pos, PosTag::kNoun);
  DepLabel dep;
  EXPECT_TRUE(ParseDepLabel("p", &dep));  // the paper's punct abbreviation
  EXPECT_EQ(dep, DepLabel::kPunct);
  EXPECT_FALSE(ParseDepLabel("not_a_label", &dep));
}

TEST(TokenizerTest, BasicWhitespace) {
  auto toks = Tokenizer::Tokenize("I ate a pie");
  EXPECT_EQ(toks, (std::vector<std::string>{"I", "ate", "a", "pie"}));
}

TEST(TokenizerTest, SplitsEdgePunctuation) {
  auto toks = Tokenizer::Tokenize("delicious, and salty.");
  EXPECT_EQ(toks,
            (std::vector<std::string>{"delicious", ",", "and", "salty", "."}));
}

TEST(TokenizerTest, FigureOneSentence) {
  auto toks = Tokenizer::Tokenize(
      "I ate a chocolate ice cream, which was delicious, and also ate a pie.");
  ASSERT_EQ(toks.size(), 17u);  // matches the paper's token ids 0..16
  EXPECT_EQ(toks[5], "cream");
  EXPECT_EQ(toks[6], ",");
  EXPECT_EQ(toks[9], "delicious");
  EXPECT_EQ(toks[16], ".");
}

TEST(TokenizerTest, Contractions) {
  auto toks = Tokenizer::Tokenize("don't stop");
  EXPECT_EQ(toks, (std::vector<std::string>{"do", "n't", "stop"}));
  auto poss = Tokenizer::Tokenize("Anna's cafe");
  EXPECT_EQ(poss, (std::vector<std::string>{"Anna", "'s", "cafe"}));
}

TEST(TokenizerTest, PreservesHyphens) {
  auto toks = Tokenizer::Tokenize("pour-over coffee");
  EXPECT_EQ(toks, (std::vector<std::string>{"pour-over", "coffee"}));
}

TEST(TokenizerTest, QuotedText) {
  auto toks = Tokenizer::Tokenize("\"hello\" she said");
  EXPECT_EQ(toks,
            (std::vector<std::string>{"\"", "hello", "\"", "she", "said"}));
}

TEST(SentenceSplitterTest, BasicSplit) {
  auto sents = SentenceSplitter::Split("I ate pie. It was good.");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_EQ(sents[0], "I ate pie.");
  EXPECT_EQ(sents[1], "It was good.");
}

TEST(SentenceSplitterTest, AbbreviationsDoNotSplit) {
  auto sents = SentenceSplitter::Split("Dr. Smith visited Mr. Jones. They met.");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_EQ(sents[1], "They met.");
}

TEST(SentenceSplitterTest, QuestionsAndExclamations) {
  auto sents = SentenceSplitter::Split("Really? Yes! Fine.");
  ASSERT_EQ(sents.size(), 3u);
}

TEST(SentenceSplitterTest, NoTerminator) {
  auto sents = SentenceSplitter::Split("no terminator here");
  ASSERT_EQ(sents.size(), 1u);
}

TEST(SentenceSplitterTest, LowercaseContinuationDoesNotSplit) {
  auto sents = SentenceSplitter::Split("It cost 3.50 dollars. and then some");
  // "3.50" must not split; lowercase "and" does not open a new sentence.
  ASSERT_EQ(sents.size(), 1u);
}

TEST(PosTaggerTest, ClosedClassWords) {
  auto tags = PosTagger::Tag({"the", "cat", "sat", "on", "a", "mat"});
  EXPECT_EQ(tags[0], PosTag::kDet);
  EXPECT_EQ(tags[3], PosTag::kAdp);
  EXPECT_EQ(tags[4], PosTag::kDet);
}

TEST(PosTaggerTest, FigureOneTags) {
  auto tags = PosTagger::Tag({"I", "ate", "a", "chocolate", "ice", "cream", ",",
                              "which", "was", "delicious", ",", "and", "also",
                              "ate", "a", "pie", "."});
  EXPECT_EQ(tags[0], PosTag::kPron);
  EXPECT_EQ(tags[1], PosTag::kVerb);
  EXPECT_EQ(tags[2], PosTag::kDet);
  EXPECT_EQ(tags[3], PosTag::kNoun);
  EXPECT_EQ(tags[4], PosTag::kNoun);
  EXPECT_EQ(tags[5], PosTag::kNoun);
  EXPECT_EQ(tags[6], PosTag::kPunct);
  EXPECT_EQ(tags[9], PosTag::kAdj);
  EXPECT_EQ(tags[11], PosTag::kConj);
  EXPECT_EQ(tags[12], PosTag::kAdv);
  EXPECT_EQ(tags[16], PosTag::kPunct);
}

TEST(PosTaggerTest, NumbersAndShapes) {
  auto tags = PosTagger::Tag({"born", "in", "1911", "."});
  EXPECT_EQ(tags[2], PosTag::kNum);
}

TEST(PosTaggerTest, CapitalizedMidSentenceIsProperNoun) {
  auto tags = PosTagger::Tag({"she", "visited", "Portland", "yesterday"});
  EXPECT_EQ(tags[2], PosTag::kPropn);
}

TEST(PosTaggerTest, SuffixHeuristics) {
  auto tags = PosTagger::Tag({"the", "quickly", "flanging", "exuberation"});
  EXPECT_EQ(tags[1], PosTag::kAdv);
  EXPECT_EQ(tags[2], PosTag::kVerb);
  EXPECT_EQ(tags[3], PosTag::kNoun);
}

TEST(PosTaggerTest, DetVerbFixup) {
  // "a drink" — lexically ambiguous tokens after determiners become nouns.
  auto tags = PosTagger::Tag({"she", "ordered", "a", "brew"});
  EXPECT_EQ(tags[3], PosTag::kNoun);
}

TEST(LexiconTest, Membership) {
  const Lexicon& lex = Lexicon::Get();
  EXPECT_TRUE(lex.IsCopula("was"));
  EXPECT_TRUE(lex.IsAuxiliary("had"));
  EXPECT_TRUE(lex.IsRelativePronoun("which"));
  EXPECT_TRUE(lex.IsNegation("never"));
  EXPECT_TRUE(lex.IsMonth("december"));
  EXPECT_FALSE(lex.IsMonth("cafe"));
  EXPECT_TRUE(lex.IsFunctionWord("the"));
  EXPECT_FALSE(lex.IsFunctionWord("cafe"));
}

TEST(DocumentTest, SpanText) {
  Sentence s;
  for (const char* w : {"a", "b", "c"}) {
    Token t;
    t.text = w;
    s.tokens.push_back(t);
  }
  EXPECT_EQ(s.SpanText(0, 2), "a b c");
  EXPECT_EQ(s.SpanText(1, 1), "b");
}

TEST(DocumentTest, SpanTextHashAndEqualityAgreeWithSpanText) {
  // Tokens may be empty or hold spaces, so equal texts also come from spans
  // of different token counts ("a b" against "a" "b").
  const std::vector<std::string> pool = {"a", "b", "a b", "", " ", "ab", "b a"};
  Rng rng(2026);
  auto random_sentence = [&] {
    Sentence s;
    const int n = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < n; ++i) {
      Token t;
      t.text = rng.Choice(pool);
      s.tokens.push_back(t);
    }
    return s;
  };
  // A random span of `s`, sometimes empty (end = begin - 1).
  auto random_span = [&](const Sentence& s) {
    const int begin = static_cast<int>(rng.UniformInt(0, s.size() - 1));
    const int end = static_cast<int>(rng.UniformInt(begin - 1, s.size() - 1));
    return std::pair<int, int>{begin, end};
  };
  int equal = 0;
  int unequal = 0;
  for (int round = 0; round < 300; ++round) {
    const Sentence s1 = random_sentence();
    const Sentence s2 = random_sentence();
    for (int trial = 0; trial < 40; ++trial) {
      const auto [b1, e1] = random_span(s1);
      const auto [b2, e2] = random_span(s2);
      const std::string t1 = s1.SpanText(b1, e1);
      const std::string t2 = s2.SpanText(b2, e2);
      const bool same = t1 == t2;
      if (same) {
        ++equal;
      } else {
        ++unequal;
      }
      EXPECT_EQ(s1.SpanTextEquals(b1, e1, s2, b2, e2), same)
          << "\"" << t1 << "\" vs \"" << t2 << "\"";
      EXPECT_EQ(s2.SpanTextEquals(b2, e2, s1, b1, e1), same);
      EXPECT_EQ(s1.SpanTextHash(b1, e1), Fnv1a64(t1));
      if (same) EXPECT_EQ(s1.SpanTextHash(b1, e1), s2.SpanTextHash(b2, e2));
      std::string appended = "x";
      s1.AppendSpanText(b1, e1, &appended);
      EXPECT_EQ(appended, "x" + t1);
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(equal, 100);
  EXPECT_GT(unequal, 100);
}

TEST(DocumentTest, TreeInfoComputation) {
  // 0 <- 1 -> 2, 2 -> 3 : root=1.
  Sentence s;
  for (int head : {1, -1, 1, 2}) {
    Token t;
    t.text = "w";
    t.head = head;
    s.tokens.push_back(t);
  }
  s.ComputeTreeInfo();
  EXPECT_EQ(s.root, 1);
  EXPECT_EQ(s.depth[1], 0);
  EXPECT_EQ(s.depth[3], 2);
  EXPECT_EQ(s.subtree_left[1], 0);
  EXPECT_EQ(s.subtree_right[1], 3);
  EXPECT_EQ(s.subtree_left[2], 2);
  EXPECT_EQ(s.subtree_right[2], 3);
  EXPECT_TRUE(s.IsAncestor(1, 3));
  EXPECT_FALSE(s.IsAncestor(3, 1));
}

TEST(DocumentTest, CorpusRefs) {
  AnnotatedCorpus corpus;
  corpus.docs.resize(2);
  corpus.docs[0].sentences.resize(3);
  corpus.docs[1].sentences.resize(2);
  corpus.RebuildRefs();
  EXPECT_EQ(corpus.NumSentences(), 5u);
  EXPECT_EQ(corpus.refs[3].doc, 1u);
  EXPECT_EQ(corpus.refs[3].sent, 0u);
}

}  // namespace
}  // namespace koko

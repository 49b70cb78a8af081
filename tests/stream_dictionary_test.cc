#include "stream/value_dictionary.h"

#include <gtest/gtest.h>

namespace implistat {
namespace {

TEST(ValueDictionaryTest, AssignsDenseIds) {
  ValueDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(dict.GetOrAdd("beta"), 1u);
  EXPECT_EQ(dict.GetOrAdd("gamma"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(ValueDictionaryTest, DuplicatesReturnSameId) {
  ValueDictionary dict;
  ValueId a = dict.GetOrAdd("alpha");
  EXPECT_EQ(dict.GetOrAdd("beta"), 1u);
  EXPECT_EQ(dict.GetOrAdd("alpha"), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(ValueDictionaryTest, FindExisting) {
  ValueDictionary dict;
  dict.GetOrAdd("x");
  auto found = dict.Find("x");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 0u);
}

TEST(ValueDictionaryTest, FindMissingIsNotFound) {
  ValueDictionary dict;
  auto missing = dict.Find("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ValueDictionaryTest, InverseLookup) {
  ValueDictionary dict;
  ValueId a = dict.GetOrAdd("S1");
  ValueId b = dict.GetOrAdd("D2");
  EXPECT_EQ(dict.ValueOf(a), "S1");
  EXPECT_EQ(dict.ValueOf(b), "D2");
}

TEST(ValueDictionaryTest, EmptyStringIsAValue) {
  ValueDictionary dict;
  ValueId e = dict.GetOrAdd("");
  EXPECT_EQ(dict.ValueOf(e), "");
  EXPECT_TRUE(dict.Find("").ok());
}

TEST(ValueDictionaryTest, ManyValues) {
  ValueDictionary dict;
  for (int i = 0; i < 10000; ++i) {
    // append, not "v" + ...: GCC 12 at -O3 misreports the operator+ as
    // an overlapping memcpy (-Werror=restrict).
    EXPECT_EQ(dict.GetOrAdd(std::string("v").append(std::to_string(i))),
              static_cast<ValueId>(i));
  }
  EXPECT_EQ(dict.size(), 10000u);
  EXPECT_EQ(dict.Find("v1234").value(), 1234u);
}

}  // namespace
}  // namespace implistat

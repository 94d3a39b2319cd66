// The encodability contract: a model text runs through parse, Explore and
// Compile to one of three ends. It compiles the DSE's pick; or it is a
// ParseError naming the line and the limit; or it is a CapacityError naming
// the layer, and the instruction field where a field's width binds. It is
// never the codec's bare InvalidArgument from inside Compile.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dse/search.h"
#include "frontend/parser.h"

namespace hdnn {
namespace {

struct Outcome {
  enum Kind { kCompiled, kParseError, kCapacityError };
  Kind kind = kCompiled;
  std::string what;                  ///< the error message, if any
  std::vector<LayerMapping> mapping; ///< the compiled pick
};

/// Parses `text`, explores it on `engine` and compiles the pick. Any error
/// but the two typed ones escapes and fails the calling test.
Outcome ParseExploreCompile(const std::string& text, const DseEngine& engine,
                            const FpgaSpec& spec,
                            const DseOptions& opts = {}) {
  Model model;
  try {
    model = ParseModelText(text);
  } catch (const ParseError& e) {
    return {Outcome::kParseError, e.what(), {}};
  }
  try {
    const DseResult r = engine.Explore(model, opts);
    Compiler(r.config, spec).Compile(model, r.mapping);
    return {Outcome::kCompiled, "", r.mapping};
  } catch (const CapacityError& e) {
    return {Outcome::kCapacityError, e.what(), {}};
  }
}

bool Contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

std::string ConvText(int k, int s, int p) {
  return "model x\ninput 4 32 32\nconv name=a out=8 k=" + std::to_string(k) +
         " s=" + std::to_string(s) + " p=" + std::to_string(p) + "\n";
}

// Kernel 1..20 x stride 1..6 x pad {0, k/2} x both boards x Winograd on and
// off: inside the COMP kernel and stride limits every case compiles (for
// kernels 13-15 the Winograd slices exceed wino_offset, so the DSE picks
// Spatial); outside them the text is a ParseError naming the limit.
TEST(EncodabilityTest, KernelStridePadSweepCompilesOrNamesTheLimit) {
  int cases = 0, compiled = 0;
  for (const FpgaSpec* spec : {&PynqZ1Spec(), &Vu9pSpec()}) {
    const DseEngine engine(*spec);
    for (const bool winograd : {true, false}) {
      DseOptions opts;
      opts.allow_winograd = winograd;
      for (int k = 1; k <= 20; ++k) {
        for (int s = 1; s <= 6; ++s) {
          for (const int p : {0, k / 2}) {
            const std::string text = ConvText(k, s, p);
            SCOPED_TRACE(spec->name + (winograd ? " winograd: " : ": ") +
                         text);
            const Outcome o = ParseExploreCompile(text, engine, *spec, opts);
            ++cases;
            if (k <= kMaxKernel && s <= kMaxStride) {
              EXPECT_EQ(o.kind, Outcome::kCompiled) << o.what;
              compiled += o.kind == Outcome::kCompiled;
              if (o.kind == Outcome::kCompiled && k > 12) {
                EXPECT_EQ(o.mapping.front().mode, ConvMode::kSpatial);
              }
              continue;
            }
            ASSERT_EQ(o.kind, Outcome::kParseError) << o.what;
            EXPECT_TRUE(Contains(o.what, "line 3")) << o.what;
            EXPECT_TRUE(Contains(o.what, k > kMaxKernel
                                             ? "the COMP kh/kw limit"
                                             : "the COMP stride limit"))
                << o.what;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 960);
  EXPECT_EQ(compiled, 2 * 2 * kMaxKernel * kMaxStride * 2);
}

// The two texts that explored and then failed to compile before the model
// carried the kernel and stride limits.
TEST(EncodabilityTest, WideKernelCompilesSpatialAndWideStrideIsAParseError) {
  for (const FpgaSpec* spec : {&PynqZ1Spec(), &Vu9pSpec()}) {
    SCOPED_TRACE(spec->name);
    const DseEngine engine(*spec);
    const Outcome wide_kernel = ParseExploreCompile(
        "model x\ninput 4 16 16\nconv name=a out=8 k=15 p=7\n", engine, *spec);
    ASSERT_EQ(wide_kernel.kind, Outcome::kCompiled) << wide_kernel.what;
    EXPECT_EQ(wide_kernel.mapping.front().mode, ConvMode::kSpatial);

    const Outcome wide_stride = ParseExploreCompile(
        "model x\ninput 4 32 32\nconv name=a out=8 k=3 s=5\n", engine, *spec);
    ASSERT_EQ(wide_stride.kind, Outcome::kParseError);
    EXPECT_TRUE(Contains(wide_stride.what, "line 3")) << wide_stride.what;
    EXPECT_TRUE(Contains(wide_stride.what, "outside [1, 4], the COMP stride"))
        << wide_stride.what;
  }
}

// Fmap extents inside kMaxModelExtent that a LOAD or SAVE field cannot
// hold: the compiler names the layer and the field.
TEST(EncodabilityTest, ExtentPastAFieldIsACapacityErrorNamingLayerAndField) {
  const struct {
    const char* text;
    const char* field;
  } cases[] = {
      {"model x\ninput 4 16 2000\nconv name=a out=8\n",
       "LOAD_INP field cols = "},
      {"model x\ninput 4 16 5000\nconv name=a out=8\n",
       "LOAD_INP field cols = "},
      {"model x\ninput 4 5000 16\nconv name=a out=8\n",
       "LOAD_INP field aux = 5000 exceeds 12 bits"},
      {"model x\ninput 4 16 16\nconv name=a out=9000\n",
       "SAVE field oc_pitch = "},
  };
  for (const FpgaSpec* spec : {&PynqZ1Spec(), &Vu9pSpec()}) {
    const DseEngine engine(*spec);
    for (const auto& c : cases) {
      SCOPED_TRACE(spec->name + ": " + c.text);
      const Outcome o = ParseExploreCompile(c.text, engine, *spec);
      ASSERT_EQ(o.kind, Outcome::kCapacityError);
      EXPECT_TRUE(Contains(o.what, "layer a: ")) << o.what;
      EXPECT_TRUE(Contains(o.what, c.field)) << o.what;
    }
  }
}

// Models whose one layer no candidate's buffers can hold: Explore names the
// layer in a CapacityError, as BestMapping does.
TEST(EncodabilityTest, LayerNoCandidateSchedulesIsACapacityErrorNamingIt) {
  for (const FpgaSpec* spec : {&PynqZ1Spec(), &Vu9pSpec()}) {
    const DseEngine engine(*spec);
    for (const char* text :
         {"model x\ninput 262144 4 4\nconv name=a out=8 k=3\n",
          "model x\ninput 1048576 16 16\nconv name=a out=8 k=15 p=7\n"}) {
      SCOPED_TRACE(spec->name + ": " + text);
      const Outcome o = ParseExploreCompile(text, engine, *spec);
      ASSERT_EQ(o.kind, Outcome::kCapacityError);
      EXPECT_TRUE(Contains(o.what, "every layer of x: layer a stops"))
          << o.what;
    }
  }
}

}  // namespace
}  // namespace hdnn

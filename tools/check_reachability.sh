#!/usr/bin/env bash
# Library reachability check (ROADMAP item 9): the library holds only code
# that a program runs (a bench, an example or the perfbench binary), plus
# the keep-list below, each entry with its reason.
#
# Compiles src/ at -O0 with one section per function into a static archive
# under build-lc/ (git-ignored), links every program against it with
# --gc-sections, and lists the archive's defined hdnn:: functions that no
# program keeps. -O0 avoids the false positives of inlining (a function
# every caller inlined looks unreached at -O2). Exits 1 when a listed
# function is not on the keep-list. Run from anywhere:
#
#   tools/check_reachability.sh
set -euo pipefail

cd "$(dirname "$0")/.."
out=build-lc

# Qualified name (parameters and ABI tags dropped) or class prefix ending in
# "::", then the reason the library keeps it although no program calls it.
keep_list=$(cat <<'EOF'
hdnn::Conv2dIm2Col                    im2col float reference: a test oracle
hdnn::Im2Col                          im2col float reference: a test oracle
hdnn::MatMul                          im2col float reference: a test oracle
hdnn::Conv2dWinogradF                 float Winograd reference: a test oracle
hdnn::Conv2dWinogradGemmF             float Winograd reference: a test oracle
hdnn::TransformInputTileF             float Winograd reference: a test oracle
hdnn::TransformOutputTileF            float Winograd reference: a test oracle
hdnn::AvgPool2d                       float reference pooling: a test oracle
hdnn::RunLayerQ                       quantized reference layer: a test oracle
hdnn::DseEngine::EnumerateCandidates  DseCandidatesTest's view of DSE step 1
hdnn::InBufferBank                    the Table 1 bank-conflict oracle
hdnn::Model::OutputShape              nine tests' view of the model output
hdnn::CheckInstructionStream          the stream check's report view, for tests
hdnn::InputTransformGrowth            bound for ROADMAP item 2's narrow sums
hdnn::GenerateHlsConfigHeader         the paper's Step 3 output
hdnn::FaultPlan::SerializeSchedule    the fault-schedule replay pin
hdnn::FaultPlan::ScheduleDigest       the fault-schedule replay pin
hdnn::BuildResNet18Style              fixture behind pinned bands
hdnn::BuildTinyResNetBlock            fixture behind pinned bands
hdnn::DramModel::ArmFault             fault-detection safety code
hdnn::DramModel::ClearFaults          fault-detection safety code
hdnn::Tensor<double>::                template instance the float references use
hdnn::Tensor<float>::                 template instance the float references use
hdnn::KernelSlice<float>::            template instance the float references use
hdnn::DecomposeKernel<float>          template instance the float references use
EOF
)

mkdir -p "$out/obj" "$out/bin"
# ar adds to an existing archive, so a deleted source's object would stay.
rm -f "$out"/obj/*.o "$out"/bin/* "$out/libhdnn.a"

# One object per source (src/a/b.cc -> obj/src_a_b.cc.o), one binary per
# bench and example, then the perfbench binary.
printf '%s\n' src/*/*.cc | xargs -P "$(nproc)" -I{} sh -c \
  'g++ -std=c++20 -O0 -ffunction-sections -fdata-sections -Isrc -c "$0" \
     -o "$1/obj/$(echo "$0" | tr / _).o"' {} "$out"
ar rcs "$out/libhdnn.a" "$out"/obj/*.o
printf '%s\n' bench/*.cc examples/*.cc | xargs -P "$(nproc)" -I{} sh -c \
  'g++ -std=c++20 -O0 -Isrc -I. "$0" "$1/libhdnn.a" -Wl,--gc-sections \
     -o "$1/bin/$(basename "$0" .cc)"' {} "$out"
(cd perfbench &&
  g++ -std=c++20 -O0 -I../src -I. main.cc workloads.cc vgg16_pynq.cc \
    resnet18_vu9p_serve.cc design_sweep.cc fleet_chaos.cc harness.cc \
    "../$out/libhdnn.a" -Wl,--gc-sections -o "../$out/bin/perfbench")

nm --defined-only "$out/libhdnn.a" | awk '$2 ~ /^[TW]$/ {print $3}' |
  LC_ALL=C sort -u > "$out/lib.syms"
for b in "$out"/bin/*; do nm --defined-only "$b" | awk '{print $3}'; done |
  LC_ALL=C sort -u > "$out/bin.syms"
# c++filt -p prints a function's qualified name alone, without its return
# type or parameters: an hdnn:: function template instance keeps its hdnn::
# prefix whatever it returns, and the libstdc++ internals instantiated on
# hdnn types (std::__relocate_a, ...), which vary with the compiler
# version, keep their std:: one. Each line: name, tab, full signature.
LC_ALL=C comm -23 "$out/lib.syms" "$out/bin.syms" > "$out/unreached.syms"
paste <(c++filt -p < "$out/unreached.syms") \
      <(c++filt < "$out/unreached.syms") |
  grep '^hdnn::' > "$out/unreached.txt" || true

status=0
while IFS=$'\t' read -r name symbol; do
  name=${name%%(*}
  name=${name//\[abi:cxx11\]/}
  kept=
  while read -r entry _; do
    if [[ "$name" == "$entry" ||
          ("$entry" == *:: && "$name" == "$entry"*) ]]; then
      kept=1
      break
    fi
  done <<< "$keep_list"
  if [[ -z "$kept" ]]; then
    echo "unreached and not on the keep-list: $symbol"
    status=1
  fi
done < "$out/unreached.txt"

echo "$(wc -l < "$out/unreached.txt") hdnn:: functions no program reaches;" \
  "list: $out/unreached.txt"
if [[ $status -ne 0 ]]; then
  echo "Give each a program that calls it, delete it, or add it to the" \
    "keep-list in $0 with its reason."
fi
exit $status

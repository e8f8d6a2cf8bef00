#!/usr/bin/env bash
# Asserts the esarp CLI's documented exit-code contract (tools/esarp_cli.cpp
# header): 0 ok, 2 usage error, 3 simulated-chip deadlock, 4 contract
# violation (including the max_cycles watchdog), 5 unrecovered fault,
# 6 static-analysis (esarp lint) findings; and esarp_compare's threshold
# rule (exit 2) and lost-results-key rule (exit 1).
# ctest only distinguishes zero from nonzero, so scripted checks pin down
# the *specific* codes scripts and CI key off.
#
# Usage: cli_exit_codes.sh <path-to-esarp> <path-to-esarp_compare>
#                          <scratch-dir>
set -u

esarp="$1"
compare="$2"
scratch="${3:-.}"
ds="$scratch/cli_exit_codes.esrp"
fails=0

expect() {
  local want="$1"
  shift
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    fails=$((fails + 1))
  else
    echo "ok (exit $want): $*"
  fi
}

# expect_named FLAG CMD...: a usage error (exit 2) whose message names FLAG.
# Only the first line of standard error counts: the usage block that
# follows it lists every flag.
expect_named() {
  local flag="$1"
  shift
  local err
  err=$("$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne 2 ] ||
    ! printf '%s\n' "$err" | head -n 1 | grep -q -- "$flag"; then
    echo "FAIL: expected exit 2 naming $flag, got $got: $*" >&2
    fails=$((fails + 1))
  else
    echo "ok (exit 2, names $flag): $*"
  fi
}

expect 0 "$esarp" simulate --out "$ds" --pulses 32 --range 65

# Recovered campaign: transfer faults retried back to the exact image.
expect 0 "$esarp" chaos --in "$ds" --cores 4 --seed 7 --dma-corrupt 1e-3

# No faults requested -> usage error.
expect 2 "$esarp" chaos --in "$ds" --cores 4

# Flag values the runners would reject are usage errors (exit 2), checked
# in the command: never a contract abort (4) or a parse error (1).
expect 2 "$esarp" simulate --out "$scratch/cli_exit_codes.bad.esrp" \
  --pulses 0
expect 2 "$esarp" image --in "$ds" --out "$scratch/cli_exit_codes.pgm" \
  --interp bogus
expect 2 "$esarp" chip --in "$ds" --cores 0
expect 2 "$esarp" chip --in "$ds" --cores 99
expect 2 "$esarp" chip --in "$ds" --cores abc
expect 2 "$esarp" power --in "$ds" --cores 0
expect 2 "$esarp" power --in "$ds" --cores 99
expect_named --epoch "$esarp" power --in "$ds" --epoch 0
expect_named --epoch "$esarp" power --in "$ds" --epoch -5
# An epoch longer than any run is one bin, not an overflow: the sampler
# never multiplies the epoch by its bin cap (2^62 * 4096 wraps).
expect 0 "$esarp" power --in "$ds" --epoch 4611686018427387904
expect 2 "$esarp" chaos --in "$ds" --cores 4 --fail 3
expect 2 "$esarp" chaos --in "$ds" --cores 4 --fail x@5
# A fail-stop on a core that runs no program would inject nothing.
expect_named --fail "$esarp" chaos --in "$ds" --cores 4 --fail 99@1000
expect_named --fail "$esarp" chaos --in "$ds" --autofocus --fail 12@1000

# A numeric flag value is parsed whole: a malformed value, trailing
# characters or a value out of the type's range is a usage error naming
# the flag, never a parse exception (exit 1) or a silently shortened value.
expect_named --pulses "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses abc
expect_named --pulses "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 99999999999999999999
expect_named --pulses "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 64x

# A fault rate is a probability: outside [0, 1] it is a usage error naming
# the flag, never a fault site silently switched off (a negative rate) or
# a campaign run at an impossible rate. 1.0 stays legal (the exit-5 pins
# below use it).
expect_named --dma-corrupt "$esarp" chaos --in "$ds" --cores 4 \
  --dma-corrupt -0.5 --dma-drop 1e-3
expect_named --noc-stall "$esarp" chaos --in "$ds" --cores 4 --noc-stall 3

# Early fail-stop with resilience off: survivors wait forever at the next
# barrier and the engine quiesces -> SimDeadlock.
expect 3 "$esarp" chaos --in "$ds" --cores 4 --fail 3@1000 --no-resilience

# Cycle budget far below the real makespan -> WatchdogExpired, which is a
# ContractViolation (the run asked for an impossible bound).
expect 4 "$esarp" chaos --in "$ds" --cores 4 --dma-corrupt 1e-3 \
  --max-cycles 1000

# Every transfer attempt corrupted -> retries exhaust -> FaultUnrecovered.
expect 5 "$esarp" chaos --in "$ds" --cores 4 --dma-corrupt 1.0
# Nothing can stand in for the autofocus correlator: its fail-stop leaves
# pairs unscored -> FaultUnrecovered.
expect 5 "$esarp" chaos --in "$ds" --autofocus --fail 13@1000

# Serve fleet: a small clean campaign terminates every job.
expect 0 "$esarp" serve --gen poisson --jobs-count 4 --chips 2 \
  --pulses 32 --range 65 --rate 2000 --seed 5

# No trace and no generator -> usage error; so is an unknown generator.
expect 2 "$esarp" serve
expect 2 "$esarp" serve --gen no-such-process

# Malformed generator and policy knobs are usage errors (exit 2), never
# contract aborts: the values are validated before any fleet is built.
expect 2 "$esarp" serve --gen poisson --jobs-count 0
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 0
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate abc
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 --pulses 0
expect 2 "$esarp" serve --gen bursty --jobs-count 4 --rate 2000 \
  --burst-mean 0.5
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --deadline 0
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --priority-mix 0.5,0.5
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --deadline-jitter 1.5
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --dispatch no-such-order
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --shed --shed-factor 0
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --shed --shed-priority urgent
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --hedge --hedge-margin -1
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --probation -1

# A flag serve does not read is a usage error naming the flag, never
# silently ignored: removed policy knobs, a typo, and a generator flag
# given with a replayed --trace.
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 --hedge
expect 2 "$esarp" serve --gen poisson --jobs-count 4 --rate 2000 \
  --probation 2
expect_named --chip-kil "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --chip-kil 0.2
# The retry backoff, watchdog factor and shedding fence are constants; their
# old flags name themselves like any other unknown flag.
expect_named --backoff "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --backoff 1e-4
expect_named --timeout-factor "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --timeout-factor 4
expect_named --shed-factor "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --shed --shed-factor 1.5
expect_named --shed-priority "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --shed --shed-priority normal

# Serve fault rates outside [0, 1] are usage errors naming the flag, as in
# chaos: never an aborted campaign (exit 5) or a disabled fault site.
small_serve=(serve --gen poisson --jobs-count 4 --chips 2 --pulses 32
  --range 65 --rate 2000 --seed 5)
expect_named --dma-corrupt "$esarp" "${small_serve[@]}" --dma-corrupt 2
expect_named --chip-kill "$esarp" "${small_serve[@]}" --chip-kill 1.5
expect_named --chip-kill "$esarp" "${small_serve[@]}" --chip-kill -1
expect_named --dma-drop "$esarp" "${small_serve[@]}" --dma-drop 1.5
expect_named --membits "$esarp" "${small_serve[@]}" --membits 1.5
expect_named --noc-stall "$esarp" "${small_serve[@]}" --noc-stall -0.5

# Every serve value is checked before anything is written: a rejected
# campaign leaves no --trace-out file behind.
rejected="$scratch/cli_exit_codes.rejected.trace.json"
rm -f "$rejected"
expect_named --chips "$esarp" serve --gen poisson --jobs-count 4 \
  --rate 2000 --chips 0 --trace-out "$rejected"
if [ -e "$rejected" ]; then
  echo "FAIL: a rejected serve campaign wrote $rejected" >&2
  fails=$((fails + 1))
fi
trace="$scratch/cli_exit_codes.trace.json"
expect 0 "$esarp" serve --gen poisson --jobs-count 4 --chips 2 \
  --pulses 32 --range 65 --rate 2000 --seed 5 --trace-out "$trace"
expect 2 "$esarp" serve --trace "$trace" --chips 2 --rate 5

# Every dispatch fail-stops its chip: the whole fleet dies with jobs
# outstanding and the campaign aborts -> FaultUnrecovered.
expect 5 "$esarp" serve --gen poisson --jobs-count 4 --chips 2 \
  --pulses 32 --range 65 --rate 2000 --seed 5 --chip-kill 1.0

# The degradation ladder keeps each algorithm's pulse shape: a halved FFBP
# job stays a power of two and a halved GBP job stays even, so a campaign
# completes or gives up (exit 5), never aborts on the shape (exit 4).
ladder=(serve --gen poisson --jobs-count 4 --rate 2000 --range 65 --chips 2)
expect 0 "$esarp" "${ladder[@]}" --pulses 64 --cores 12 --algo ffbp \
  --dma-corrupt 0.2 --seed 2
expect 0 "$esarp" "${ladder[@]}" --pulses 34 --cores 4 --algo gbp \
  --dma-corrupt 0.003 --seed 2
expect 5 "$esarp" "${ladder[@]}" --pulses 34 --cores 4 --algo gbp \
  --dma-corrupt 0.3 --seed 3

# A burst mean whose continue probability rounds to 1 still ends: a burst
# never outgrows the jobs left to generate.
expect 0 timeout 20 "$esarp" serve --gen bursty --jobs-count 4 --rate 2000 \
  --burst-mean 1e300 --pulses 32 --range 65 --cores 4

# Static mapping analysis: the shipped mappings lint clean...
expect 0 "$esarp" lint --mapping all
# ...an unknown mapping name is a usage error...
expect 2 "$esarp" lint --mapping no-such-mapping
# ...and so is a shape no mapping can have: a 0-core FFBP (never "clean,
# predicted 0 cycles"), a 1-bin range, no block pairs (never invented
# deadlock findings), or a pulse count FFBP cannot halve down to one...
expect 2 "$esarp" lint --cores 0
expect 2 "$esarp" lint --range 1
expect 2 "$esarp" lint --pairs 0
expect 2 "$esarp" lint --mapping ffbp --pulses 48
# ...while more cores than the chip has is a finding, not a usage error.
expect 6 "$esarp" lint --cores 32
# ...and a mapping that provably cannot fit (double-buffered prefetch at
# the paper's 1001-bin rows overflows the four-bank local store) exits
# with the distinct findings code.
expect 6 "$esarp" lint --mapping ffbp-db --pulses 32 --range 1001

# Every command checks each given flag against the flags it declares before
# it does any work: an undeclared flag (a typo, or lint's removed
# --double-buffer, which --mapping ffbp-db replaces) is a usage error naming
# the flag, never a run with the intended setting silently left at its
# default.
manifest="$scratch/cli_exit_codes.manifest.json"
expect 0 "$esarp" chip --in "$ds" --cores 4 --metrics "$manifest"
expect_named --no-prefech "$esarp" chip --in "$ds" --cores 4 --no-prefech
expect_named --csvv "$esarp" power --in "$ds" --cores 4 \
  --csvv "$scratch/cli_exit_codes.csv"
expect_named --dma-corupt "$esarp" chaos --in "$ds" --cores 4 \
  --dma-corupt 1e-3 --dma-drop 1e-3
expect_named --validat "$esarp" lint --validat
expect_named --nosie "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 32 --range 65 --nosie 0.1
expect_named --interpp "$esarp" image --in "$ds" \
  --out "$scratch/cli_exit_codes.pgm" --interpp cubic
expect_named --bogus "$esarp" analyze --in "$ds" --bogus 1
expect_named --bogus "$esarp" report --in "$manifest" --bogus 1
expect_named --double-buffer "$esarp" lint --double-buffer

# A value outside its flag's declared range, which also keeps it inside the
# type the command reads it as, is a usage error naming the flag: never
# narrowed to another value (4294967297 chips to 1) or read as "off".
expect_named --chips "$esarp" "${small_serve[@]}" --chips 4294967297
expect_named --cores "$esarp" lint --cores 4294967312
expect_named --max-cycles "$esarp" chaos --in "$ds" --cores 4 \
  --dma-corrupt 1e-3 --max-cycles -5
expect_named --noise "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 32 --range 65 --noise -1
expect_named --targets "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 32 --range 65 --targets -3
expect_named --looks "$esarp" image --in "$ds" \
  --out "$scratch/cli_exit_codes.pgm" --looks 0
# Looks must split the scene's 32 pulses evenly, at least 2 to a look.
for looks in 3 32 64; do
  expect_named --looks "$esarp" image --in "$ds" \
    --out "$scratch/cli_exit_codes.pgm" --looks "$looks"
done

# Serve's generator holds each job to the shape its runners accept, so a bad
# shape is a usage error before the fleet starts, never a contract abort at
# dispatch (exit 4). Lint shares the pulse rule: a power of two for FFBP, an
# even count for GBP.
gen_serve=(serve --gen poisson --jobs-count 4 --rate 2000 --pulses 32
  --range 65)
expect_named --cores "$esarp" "${gen_serve[@]}" --cores 99
expect_named --pulses "$esarp" "${gen_serve[@]}" --pulses 1
expect_named --range "$esarp" "${gen_serve[@]}" --range 1
expect_named --pulses "$esarp" "${gen_serve[@]}" --pulses 48
expect_named --pulses "$esarp" "${gen_serve[@]}" --algo gbp --pulses 33
expect_named --pulses "$esarp" lint --mapping gbp --pulses 33 --range 65 \
  --validate
# The sector sar::test_params forms widens with the pulses: 2048 pulses at
# 65 range bins span 4.9 rad, past the bound RadarParams::validate sets. It
# is a usage error naming --pulses in every command that forms it, never a
# contract abort (4) or a clean lint of an aperture no run accepts.
expect_named --pulses "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --pulses 2048 --range 65
expect_named --pulses "$esarp" lint --mapping ffbp --pulses 2048 --range 65
expect_named --pulses "$esarp" serve --gen poisson --jobs-count 2 --rate 100 \
  --pulses 2048 --range 65 --cores 16 --chips 1
# --paper fixes the 1024 x 1001 aperture, so a shape flag beside it is a
# usage error naming that flag, never silently ignored.
expect_named --pulses "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --paper --pulses 64
expect_named --range "$esarp" simulate \
  --out "$scratch/cli_exit_codes.bad.esrp" --paper --range 65
# So is a NaN or infinite --priority-mix weight, never a contract abort.
expect_named --priority-mix "$esarp" "${gen_serve[@]}" --priority-mix nan,1,1
expect_named --priority-mix "$esarp" "${gen_serve[@]}" --priority-mix inf,1,1
# ...or a fourth weight, never silently ignored.
expect_named --priority-mix "$esarp" "${gen_serve[@]}" \
  --priority-mix 0.3,0.5,0.2,0.9

# esarp_compare parses each threshold whole and wants it >= 0: NaN would
# pass any regression, and a malformed value must not abort (exit 134).
expect_named --threshold "$compare" "$manifest" "$manifest" --threshold nan
expect_named --threshold "$compare" "$manifest" "$manifest" --threshold abc
expect_named --metric "$compare" "$manifest" "$manifest" \
  --metric results.x=abc
expect_named --threshold "$compare" "$manifest" "$manifest" \
  --threshold 0.05x

# A results key the current manifest lost is a regression, never a pass
# for want of anything to compare.
lost="$scratch/cli_exit_codes.lost_key.manifest.json"
grep -v '"avg_watts"' "$manifest" >"$lost"
expect 0 "$compare" "$manifest" "$manifest" --threshold 0.0
expect 1 "$compare" "$manifest" "$lost" --threshold 0.0

if [ "$fails" -gt 0 ]; then
  echo "cli_exit_codes: $fails check(s) failed" >&2
  exit 1
fi
echo "cli_exit_codes: all exit codes match the documented contract"

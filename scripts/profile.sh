#!/usr/bin/env bash
# Where host time goes in one corona-run invocation, without perf:
#
#   1. Build a SIGPROF sampler (a preload library) in a temporary
#      directory. Its constructor arms a process-wide 20 kHz timer whose
#      handler stores the interrupted instruction address and nothing
#      else; its destructor stops the timer and writes every sample as
#      "object offset" to a file in that directory.
#   2. Run BUILD/corona-run --quiet --no-table SCENARIO with the sampler
#      preloaded into that one process only (through env, never
#      exported). The sampler spawns no process: a preloaded child would
#      run the same exit code again.
#   3. Resolve corona-run's samples in one addr2line batch and print
#      their share by outermost (non-inlined) file, by innermost
#      (possibly inlined) function and by innermost source line.
#
# At threads = 1 and sim_threads <= 1 the scenario runs on the main
# thread; with more threads the timer signals whichever one it finds.
# Exits 1 when corona-run fails or no sample lands in it.
#
# Usage: scripts/profile.sh BUILD SCENARIO   (e.g. build my.scenario)
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: scripts/profile.sh BUILD SCENARIO" >&2
  exit 2
fi
[ -x "$1/corona-run" ] || { echo "profile: no corona-run in $1" >&2; exit 2; }
RUN="$(cd "$1" && pwd)/corona-run"
SCENARIO="$2"

DIR="$(mktemp -d)"
trap 'rm -rf "${DIR}"' EXIT

cat > "${DIR}/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t samples[MAX_SAMPLES];
static unsigned count;
static timer_t timer;

static void
sample(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
    const unsigned slot = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
#if defined(__x86_64__)
    samples[slot] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    samples[slot] = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "profile.sh: no program counter for this architecture"
#endif
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction action = {0};
    action.sa_sigaction = sample;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct sigevent event = {0};
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    timer_create(CLOCK_MONOTONIC, &event, &timer);
    const struct itimerspec period = {{0, 50000}, {0, 50000}};
    timer_settime(timer, 0, &period, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    timer_delete(timer);
    unsigned n = __atomic_load_n(&count, __ATOMIC_RELAXED);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    FILE *out = fopen(SAMPLES_PATH, "w");
    if (!out)
        return;
    for (unsigned i = 0; i < n; ++i) {
        Dl_info where;
        if (dladdr((void *)samples[i], &where) && where.dli_fname)
            fprintf(out, "%s %#lx\n", where.dli_fname,
                    (unsigned long)(samples[i] -
                                    (uintptr_t)where.dli_fbase));
        else
            fprintf(out, "? 0\n");
    }
    fclose(out);
}
EOF
gcc -O2 -shared -fPIC -DSAMPLES_PATH="\"${DIR}/samples.txt\"" \
  -o "${DIR}/libsampler.so" "${DIR}/sampler.c" -ldl -lrt

env LD_PRELOAD="${DIR}/libsampler.so" \
  "${RUN}" --quiet --no-table "${SCENARIO}" ||
  { echo "profile: corona-run failed" >&2; exit 1; }

[ -s "${DIR}/samples.txt" ] || { echo "profile: no samples" >&2; exit 1; }
total=$(wc -l < "${DIR}/samples.txt")
# dladdr names the main program as invoked, or by its full path.
awk -v run="${RUN}" '$1 == run || $1 ~ /\/corona-run$/ { print $2 }' \
  "${DIR}/samples.txt" > "${DIR}/offsets.txt"
own=$(wc -l < "${DIR}/offsets.txt")
if [ "${own}" -eq 0 ]; then
  echo "profile: ${total} samples, none in corona-run" >&2
  exit 1
fi

addr2line -i -f -C -a -e "${RUN}" < "${DIR}/offsets.txt" \
  > "${DIR}/frames.txt"

echo "profile: ${total} samples at 20 kHz, ${own} in corona-run"
# addr2line -a -i prints each address, then one (function, file:line)
# pair per frame, innermost first: the last pair is the non-inlined
# function the code lies in. Tally "file<TAB>name", "function<TAB>name"
# and "line<TAB>file:line" per sample, then print the top 20 of each.
awk '
  function flush() {
    if (inner != "")
      print "file\t" outer "\nfunction\t" inner "\nline\t" where
  }
  /^0x/ { flush(); inner = ""; frame = 0; next }
  frame++ % 2 == 0 { fn = $0; next }
  {
    loc = $0
    sub(/ \(discriminator [0-9]+\)$/, "", loc)
    sub(/.*\//, "", loc)
    file = loc
    sub(/:[0-9?]+$/, "", file)
    if (inner == "") { inner = fn; where = loc }
    outer = file
  }
  END { flush() }
' "${DIR}/frames.txt" | sort | uniq -c > "${DIR}/tallies.txt"
for kind in file function line; do
  case "${kind}" in
    file) echo "by outermost file:" ;;
    function) echo "by innermost function:" ;;
    line) echo "by innermost source line:" ;;
  esac
  awk -v kind="${kind}" -v own="${own}" '
    { count = $1; sub(/^ *[0-9]+ /, "") }
    index($0, kind "\t") == 1 {
      printf "%d\t%5.1f%%  %s\n", count, 100 * count / own,
             substr($0, length(kind) + 2)
    }
  ' "${DIR}/tallies.txt" | sort -t "$(printf '\t')" -k1,1nr |
    sed -n '1,20s/^[0-9]*\t/  /p'
done

#!/usr/bin/env python3
"""Sample the program counter of a running process, for hosts without `perf`.

Attaches to every thread with PTRACE_SEIZE, then about RATE times a second
stops each one with PTRACE_INTERRUPT, reads `rip` with PTRACE_GETREGS and
lets it go. Samples inside the executable are symbolized with `nm -n`
(after subtracting the PIE base from /proc/PID/maps); `--inside NAME`
also buckets the samples of the hottest symbol containing NAME by
instruction, with the disassembly from `objdump -d`. x86-64 Linux only.

    tools/pc_sample.py --seconds 5 -- target/release/benchmark --workload serve-openbound
    tools/pc_sample.py --pid 1234 --inside Vm::execute
"""
import argparse, bisect, collections, ctypes, os, re, subprocess, sys, time

SEIZE, INTERRUPT, GETREGS, CONT, DETACH, WALL = 0x4206, 0x4207, 12, 7, 17, 0x40000000
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long
regs = (ctypes.c_ulong * 27)()  # struct user_regs_struct; rip is field 16

def sample(tid):
    """The thread's rip, or None when it has exited."""
    if libc.ptrace(INTERRUPT, tid, None, None) != 0:
        return None
    status = ctypes.c_int()
    if libc.waitpid(tid, ctypes.byref(status), WALL) != tid:
        return None
    st = status.value
    if os.WIFEXITED(st) or os.WIFSIGNALED(st):
        return None
    rip = regs[16] if libc.ptrace(GETREGS, tid, None, ctypes.byref(regs)) == 0 else None
    # A signal that arrived meanwhile is passed on; the interrupt stop is not.
    sig = os.WSTOPSIG(st) if os.WIFSTOPPED(st) and st >> 16 == 0 else 0
    libc.ptrace(CONT, tid, None, ctypes.c_void_p(sig))
    return rip

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pid", type=int)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--rate", type=float, default=1000.0)
    ap.add_argument("--delay", type=float, default=3.0, help="wait before sampling a started command")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--inside", help="bucket the samples of this symbol by instruction")
    ap.add_argument("command", nargs="*", help="run and sample this command instead of --pid")
    a = ap.parse_args()
    child = subprocess.Popen(a.command, stdout=subprocess.DEVNULL) if a.command else None
    pid = child.pid if child else a.pid
    time.sleep(a.delay if child else 0)
    exe = os.readlink(f"/proc/{pid}/exe")
    spans = [[int(x, 16) for x in l.split()[0].split("-")] for l in open(f"/proc/{pid}/maps") if l.rstrip().endswith(exe)]
    base, top = min(s for s, _ in spans), max(e for _, e in spans)
    tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
    tids = [t for t in tids if libc.ptrace(SEIZE, t, None, None) == 0]
    pcs, outside, end = collections.Counter(), 0, time.time() + a.seconds
    while time.time() < end and tids:
        for t in list(tids):
            rip = sample(t)
            if rip is None:
                tids.remove(t)
            elif base <= rip < top:
                pcs[rip - base] += 1
            else:
                outside += 1
        time.sleep(1.0 / a.rate)
    for t in tids:
        libc.ptrace(INTERRUPT, t, None, None); libc.waitpid(t, None, WALL); libc.ptrace(DETACH, t, None, None)
    if child:
        child.terminate(); child.wait()
    syms = [l.split(None, 2) for l in subprocess.run(["nm", "-n", "-C", exe], capture_output=True, text=True).stdout.splitlines()]
    syms = [(int(s[0], 16), s[2]) for s in syms if len(s) == 3 and s[1] in "tTwW"]
    addrs = [s[0] for s in syms]
    by_sym, total = collections.Counter(), sum(pcs.values())
    for pc, n in pcs.items():
        i = bisect.bisect_right(addrs, pc) - 1
        by_sym[syms[i][1] if i >= 0 else "?"] += n
    print(f"{total} samples in {exe}, {outside} outside it")
    for name, n in by_sym.most_common(a.top):
        print(f"{100 * n / max(total, 1):6.2f}% {n:7d}  {name[:150]}")
    if a.inside:
        name = next((s for s, _ in by_sym.most_common() if a.inside in s), None)
        if name is None:
            return print(f"no samples in a symbol containing {a.inside!r}")
        i = [s[1] for s in syms].index(name)
        lo, hi = syms[i][0], syms[i + 1][0] if i + 1 < len(syms) else syms[i][0] + 1
        asm = subprocess.run(["objdump", "-d", "--no-show-raw-insn", f"--start-address={lo:#x}", f"--stop-address={hi:#x}", exe], capture_output=True, text=True).stdout
        text = {int(m.group(1), 16): m.group(2).strip() for m in re.finditer(r"^\s*([0-9a-f]+):\s*(.*)$", asm, re.M)}
        inside = {pc: n for pc, n in pcs.items() if lo <= pc < hi}
        print(f"\n{sum(inside.values())} samples inside {name[:100]}, hottest instructions:")
        for pc, n in sorted(inside.items(), key=lambda kv: -kv[1])[: a.top]:
            print(f"{100 * n / max(total, 1):6.2f}% {n:6d}  {pc:#x}  {text.get(pc, '?')}")

if __name__ == "__main__":
    sys.exit(main())

"""Tests for the measured engine (JIT pipeline + MIR executor).

The key invariant: for every program, every runtime profile computes the
*same values* as the reference interpreter — profiles may only differ in
simulated cycles.  (Paper section 3: same CIL on every runtime.)
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ManagedException, VMError
from repro.lang import compile_source
from repro.runtimes import (
    ALL_PROFILES,
    CLR11,
    IBM131,
    MONO023,
    NATIVE_C,
    SSCLI10,
)
from repro.vm.interpreter import Interpreter
from repro.vm.loader import LoadedAssembly
from repro.vm.machine import Machine


def run_all(source, profiles=None):
    """Compile once; run on the interpreter and each profile; assert
    identical results; return {name: (result, machine)}."""
    assembly = compile_source(source)
    reference = Interpreter(LoadedAssembly(assembly)).run()
    out = {}
    for p in profiles or (NATIVE_C, CLR11, IBM131, MONO023, SSCLI10):
        machine = Machine(LoadedAssembly(compile_source(source)), p)
        result = machine.run()
        assert result == reference, f"{p.name}: {result} != {reference}"
        out[p.name] = (result, machine)
    return reference, out


DIFFERENTIAL_PROGRAMS = {
    "arith_mix": """
        class P { static long Main() {
            long acc = 0;
            for (int i = 1; i < 200; i++) {
                acc += i * 3 - (i / 7) + (i % 5);
                acc ^= (long)i << (i % 13);
            }
            return acc;
        } }""",
    "float_kernel": """
        class P { static double Main() {
            double s = 0.0;
            for (int i = 0; i < 100; i++) {
                double x = i * 0.01;
                s += Math.Sin(x) * Math.Cos(x) + Math.Sqrt(x + 1.0);
            }
            return Math.Floor(s * 1000.0);
        } }""",
    "virtual_chain": """
        class Shape { virtual double Area() { return 0.0; } }
        class Square : Shape {
            double side;
            Square(double s) { side = s; }
            override double Area() { return side * side; }
        }
        class Circle : Shape {
            double r;
            Circle(double r0) { r = r0; }
            override double Area() { return 3.14159 * r * r; }
        }
        class P { static double Main() {
            Shape[] shapes = new Shape[10];
            for (int i = 0; i < 10; i++) {
                if (i % 2 == 0) { shapes[i] = new Square(i); }
                else { shapes[i] = new Circle(i); }
            }
            double total = 0.0;
            for (int i = 0; i < 10; i++) { total += shapes[i].Area(); }
            return Math.Floor(total);
        } }""",
    "exception_dance": """
        class P {
            static int Inner(int k) {
                try {
                    if (k % 3 == 0) throw new ArithmeticException("x");
                    if (k % 3 == 1) throw new Exception("y");
                    return k;
                } finally { counter++; }
            }
            static int counter;
            static int Main() {
                int total = 0;
                for (int k = 0; k < 30; k++) {
                    try { total += Inner(k); }
                    catch (ArithmeticException e) { total += 1; }
                    catch (Exception e) { total += 2; }
                }
                return total * 100 + counter;
            }
        }""",
    "struct_matrix": """
        struct Vec { double x; double y; }
        class P { static double Main() {
            Vec[] vs = new Vec[50];
            for (int i = 0; i < vs.Length; i++) {
                vs[i].x = i; vs[i].y = 2 * i;
            }
            Vec acc = new Vec();
            for (int i = 0; i < vs.Length; i++) {
                Vec v = vs[i];
                acc.x += v.x; acc.y += v.y;
            }
            return acc.x + acc.y;
        } }""",
    "md_vs_jagged": """
        class P { static double Main() {
            int n = 12;
            double[,] md = new double[n, n];
            double[][] jag = new double[n][];
            for (int i = 0; i < n; i++) { jag[i] = new double[n]; }
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++) {
                    md[i, j] = i * n + j;
                    jag[i][j] = md[i, j] * 2.0;
                }
            double s = 0.0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    s += md[i, j] + jag[i][j];
            return s;
        } }""",
    "boxing_loop": """
        class P { static int Main() {
            int total = 0;
            for (int i = 0; i < 50; i++) {
                object o = i;
                total += (int)o;
            }
            object d = 1.25;
            return total + (int)((double)d * 4.0);
        } }""",
    "string_building": """
        class P { static int Main() {
            string s = "";
            for (int i = 0; i < 10; i++) { s = s + i; }
            return s.Length;
        } }""",
    "recursion": """
        class P {
            static int Fib(int n) { return n < 2 ? n : Fib(n - 1) + Fib(n - 2); }
            static int Main() { return Fib(15); }
        }""",
    "serializer": """
        class Node { int v; Node next; }
        class P { static int Main() {
            Node head = null;
            for (int i = 0; i < 5; i++) {
                Node n = new Node(); n.v = i; n.next = head; head = n;
            }
            Serializer.WriteObject(head);
            Node copy = (Node)Serializer.ReadObject();
            int s = 0;
            while (copy != null) { s = s * 10 + copy.v; copy = copy.next; }
            return s;
        } }""",
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PROGRAMS))
def test_differential_all_profiles(name):
    reference, results = run_all(DIFFERENTIAL_PROGRAMS[name], profiles=ALL_PROFILES)
    assert reference is not None or name  # identical results asserted inside


class TestPerformanceOrdering:
    """Structural performance relations the paper reports, asserted on the
    cycle counts (not on specific numbers)."""

    def _cycles(self, source, profiles):
        _ref, results = run_all(source, profiles)
        return {name: m.cycles for name, (_r, m) in results.items()}

    def test_register_quality_ordering_on_add_loop(self):
        src = """
        class P { static int Main() {
            int a = 1; int b = 2; int c = 3; int d = 4;
            for (int i = 0; i < 30000; i++) { a = b + c; b = c + d; c = d + a; d = a + b; }
            return a + b + c + d;
        } }"""
        cycles = self._cycles(src, (CLR11, MONO023, SSCLI10, IBM131))
        # paper: Mono ~ half of CLR; Rotor 5-10x slower; CLR ~ IBM
        assert cycles["mono-0.23"] > cycles["clr-1.1"] * 1.5
        assert cycles["sscli-1.0"] > cycles["clr-1.1"] * 3.0
        assert cycles["sscli-1.0"] > cycles["mono-0.23"]
        ratio = cycles["clr-1.1"] / cycles["ibm-1.3.1"]
        assert 0.5 < ratio < 2.0

    def test_exceptions_cli_much_slower_than_jvm(self):
        src = """
        class P { static int Main() {
            int n = 0;
            for (int i = 0; i < 200; i++) {
                try { throw new Exception("x"); } catch (Exception e) { n++; }
            }
            return n;
        } }"""
        cycles = self._cycles(src, (CLR11, IBM131, MONO023, SSCLI10))
        assert cycles["clr-1.1"] > cycles["ibm-1.3.1"] * 4
        assert cycles["mono-0.23"] > cycles["ibm-1.3.1"] * 4
        assert cycles["sscli-1.0"] > cycles["ibm-1.3.1"] * 4

    def test_math_library_clr_faster_than_jvm(self):
        src = """
        class P { static double Main() {
            double s = 0.0;
            for (int i = 0; i < 2000; i++) { s += Math.Sin(i * 0.001); }
            return Math.Floor(s);
        } }"""
        cycles = self._cycles(src, (CLR11, IBM131))
        assert cycles["clr-1.1"] < cycles["ibm-1.3.1"]

    def test_multidim_slower_than_jagged_on_clr(self):
        md = """
        class P { static double Main() {
            int n = 40;
            double[,] m = new double[n, n];
            double s = 0.0;
            for (int it = 0; it < 20; it++)
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++) { m[i, j] = i + j; s += m[i, j]; }
            return s;
        } }"""
        jag = """
        class P { static double Main() {
            int n = 40;
            double[][] m = new double[n][];
            for (int i = 0; i < n; i++) { m[i] = new double[n]; }
            double s = 0.0;
            for (int it = 0; it < 20; it++)
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++) { m[i][j] = i + j; s += m[i][j]; }
            return s;
        } }"""
        md_cycles = self._cycles(md, (CLR11,))["clr-1.1"]
        jag_cycles = self._cycles(jag, (CLR11,))["clr-1.1"]
        assert md_cycles > jag_cycles * 1.5

    def test_native_baseline_fastest(self):
        src = DIFFERENTIAL_PROGRAMS["arith_mix"]
        cycles = self._cycles(src, ALL_PROFILES)
        fastest = min(cycles, key=cycles.get)
        assert fastest == "native-c"


class TestBoundsCheckElimination:
    def test_length_pattern_faster_than_local_bound_on_clr(self):
        length_src = """
        class P { static int Main() {
            int[] a = new int[2000];
            int s = 0;
            for (int it = 0; it < 20; it++)
                for (int i = 0; i < a.Length; i++) { s += a[i]; }
            return s;
        } }"""
        local_src = """
        class P { static int Main() {
            int[] a = new int[2000];
            int n = 2000;
            int s = 0;
            for (int it = 0; it < 20; it++)
                for (int i = 0; i < n; i++) { s += a[i]; }
            return s;
        } }"""
        _r, out1 = run_all(length_src, (CLR11,))
        _r, out2 = run_all(local_src, (CLR11,))
        assert out1["clr-1.1"][1].cycles < out2["clr-1.1"][1].cycles

    def test_elimination_reported_in_stats(self):
        src = """
        class P { static int Main() {
            int[] a = new int[100];
            int s = 0;
            for (int i = 0; i < a.Length; i++) { s += a[i]; }
            return s;
        } }"""
        assembly = compile_source(src)
        loaded = LoadedAssembly(assembly)
        machine = Machine(loaded, CLR11)
        machine.run()
        fn = machine.jit.compile(assembly.entry_point)
        assert fn.stats.get("bce_eliminated", 0) >= 1

    def test_no_elimination_on_mono(self):
        src = """
        class P { static int Main() {
            int[] a = new int[100];
            int s = 0;
            for (int i = 0; i < a.Length; i++) { s += a[i]; }
            return s;
        } }"""
        assembly = compile_source(src)
        machine = Machine(LoadedAssembly(assembly), MONO023)
        machine.run()
        fn = machine.jit.compile(assembly.entry_point)
        assert fn.stats.get("bce_eliminated", 0) == 0


class TestThreading:
    def test_fork_join(self):
        src = """
        class Worker {
            int result;
            int n;
            virtual void Run() {
                int s = 0;
                for (int i = 0; i <= n; i++) { s += i; }
                result = s;
            }
        }
        class P { static int Main() {
            Worker[] ws = new Worker[4];
            int[] tids = new int[4];
            for (int i = 0; i < 4; i++) {
                ws[i] = new Worker();
                ws[i].n = (i + 1) * 10;
                tids[i] = Thread.Create(ws[i]);
                Thread.Start(tids[i]);
            }
            int total = 0;
            for (int i = 0; i < 4; i++) {
                Thread.Join(tids[i]);
                total += ws[i].result;
            }
            return total;
        } }"""
        for profile in (CLR11, IBM131):
            machine = Machine(LoadedAssembly(compile_source(src)), profile)
            assert machine.run() == 55 + 210 + 465 + 820

    def test_lock_contention(self):
        src = """
        class Shared { int count; }
        class Bumper {
            Shared target;
            virtual void Run() {
                for (int i = 0; i < 100; i++) {
                    lock (target) { target.count = target.count + 1; }
                }
            }
        }
        class P { static int Main() {
            Shared s = new Shared();
            int[] tids = new int[3];
            Bumper[] bs = new Bumper[3];
            for (int i = 0; i < 3; i++) {
                bs[i] = new Bumper();
                bs[i].target = s;
                tids[i] = Thread.Create(bs[i]);
                Thread.Start(tids[i]);
            }
            for (int i = 0; i < 3; i++) { Thread.Join(tids[i]); }
            return s.count;
        } }"""
        machine = Machine(LoadedAssembly(compile_source(src)), CLR11, quantum=777)
        assert machine.run() == 300

    def test_monitor_wait_pulse(self):
        src = """
        class Box { int value; bool ready; }
        class Producer {
            Box box;
            virtual void Run() {
                lock (box) {
                    box.value = 42;
                    box.ready = true;
                    Monitor.PulseAll(box);
                }
            }
        }
        class P { static int Main() {
            Box box = new Box();
            Producer p = new Producer();
            p.box = box;
            int tid = Thread.Create(p);
            Thread.Start(tid);
            int got = 0;
            lock (box) {
                while (!box.ready) { Monitor.Wait(box); }
                got = box.value;
            }
            Thread.Join(tid);
            return got;
        } }"""
        machine = Machine(LoadedAssembly(compile_source(src)), CLR11, quantum=500)
        assert machine.run() == 42

    def test_deterministic_interleaving(self):
        src = """
        class Appender {
            static int trace;
            int digit;
            virtual void Run() {
                for (int i = 0; i < 3; i++) { trace = trace * 10 + digit; Thread.Yield(); }
            }
        }
        class P { static int Main() {
            int[] tids = new int[2];
            for (int i = 0; i < 2; i++) {
                Appender a = new Appender();
                a.digit = i + 1;
                tids[i] = Thread.Create(a);
                Thread.Start(tids[i]);
            }
            for (int i = 0; i < 2; i++) { Thread.Join(tids[i]); }
            return Appender.trace;
        } }"""
        runs = set()
        for _ in range(3):
            machine = Machine(LoadedAssembly(compile_source(src)), CLR11, quantum=400)
            runs.add(machine.run())
        assert len(runs) == 1  # deterministic

    def test_deadlock_detected(self):
        src = """
        class Sleeper {
            object a; object b;
            virtual void Run() {
                lock (b) { for (int i = 0; i < 2000; i++) { } lock (a) { } }
            }
        }
        class P { static int Main() {
            object a = new Sleeper();
            object b = new Sleeper();
            Sleeper s = new Sleeper();
            s.a = a; s.b = b;
            int tid = Thread.Create(s);
            lock (a) {
                Thread.Start(tid);
                for (int i = 0; i < 2000; i++) { }
                lock (b) { }
            }
            Thread.Join(tid);
            return 0;
        } }"""
        machine = Machine(LoadedAssembly(compile_source(src)), CLR11, quantum=100)
        with pytest.raises(VMError, match="deadlock"):
            machine.run()


class TestMachineMisc:
    def test_unhandled_exception_raises_managed(self):
        src = 'class P { static int Main() { throw new Exception("kaboom"); } }'
        machine = Machine(LoadedAssembly(compile_source(src)), CLR11)
        with pytest.raises(ManagedException, match="kaboom"):
            machine.run()

    def test_bench_sections_cycle_based(self):
        src = """
        class P { static void Main() {
            Bench.Start("a");
            for (int i = 0; i < 1000; i++) { }
            Bench.Stop("a");
            Bench.Start("b");
            for (int i = 0; i < 5000; i++) { }
            Bench.Stop("b");
        } }"""
        machine = Machine(LoadedAssembly(compile_source(src)), CLR11)
        machine.run()
        a = machine.bench.sections["a"].total_cycles
        b = machine.bench.sections["b"].total_cycles
        assert b > a * 3

    def test_inlining_reported_on_clr_not_mono(self):
        src = """
        class P {
            static int Add(int a, int b) { return a + b; }
            static int Main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s = Add(s, i); }
                return s;
            }
        }"""
        assembly = compile_source(src)
        m1 = Machine(LoadedAssembly(assembly), CLR11)
        m1.run()
        fn = m1.jit.compile(assembly.entry_point)
        assert fn.stats.get("inlined_calls", 0) >= 1
        assembly2 = compile_source(src)
        m2 = Machine(LoadedAssembly(assembly2), MONO023)
        m2.run()
        fn2 = m2.jit.compile(assembly2.entry_point)
        assert fn2.stats.get("inlined_calls", 0) == 0

    def test_clr_const_div_quirk_staged(self):
        src = """
        class P { static int Main() {
            int x = int.MaxValue;
            int d = 3;
            for (int i = 0; i < 10; i++) { x = x / d; if (x == 0) { x = int.MaxValue; } }
            return x;
        } }"""
        assembly = compile_source(src)
        machine = Machine(LoadedAssembly(assembly), CLR11)
        machine.run()
        fn = machine.jit.compile(assembly.entry_point)
        assert fn.stats.get("const_div_staged", 0) >= 1

    def test_enregistration_counts_differ(self):
        src = """
        class P { static int Main() {
            int a = 1; int b = 2; int c = 3;
            for (int i = 0; i < 100; i++) { a += b; b += c; c += a; }
            return a;
        } }"""
        placements = {}
        for p in (CLR11, MONO023, SSCLI10):
            assembly = compile_source(src)
            machine = Machine(LoadedAssembly(assembly), p)
            machine.run()
            fn = machine.jit.compile(assembly.entry_point)
            n_locals = len(assembly.entry_point.locals)
            local_regs = sum(1 for v in range(n_locals) if fn.in_register[v])
            placements[p.name] = (fn.stats.get("enregistered", 0), local_regs)
        # Rotor enregisters nothing; Mono keeps named locals in the frame
        # (only scratch temps get registers); the CLR enregisters locals too
        assert placements["sscli-1.0"] == (0, 0)
        assert placements["mono-0.23"][1] == 0
        assert placements["clr-1.1"][1] > 0

class TestTwoPassUnwindFaults:
    """Two-pass exception handling under hostile unwind shapes: finally
    blocks that themselves throw must *replace* the in-flight exception
    (ECMA-335 behavior), with enclosing finallies still running — identical
    on the interpreter and every machine profile."""

    def test_finally_that_throws_replaces_inflight_exception(self):
        src = """
        class P {
            static int Trace;
            static void Inner() {
                try { throw new ArgumentException("original"); }
                finally {
                    P.Trace = P.Trace + 1;
                    throw new ArithmeticException("from finally");
                }
            }
            static int Main() {
                int caught = 0;
                try { P.Inner(); }
                catch (ArithmeticException e) { caught = 1; }
                catch (ArgumentException e) { caught = 2; }
                return caught * 10 + P.Trace;
            }
        }"""
        reference, _runs = run_all(src)
        assert reference == 11  # finally ran once; its exception won

    def test_outer_finally_runs_after_inner_finally_throws(self):
        src = """
        class P {
            static int Trace;
            static void Inner() {
                try {
                    try { throw new ArgumentException("original"); }
                    finally {
                        P.Trace = P.Trace + 1;
                        throw new ArithmeticException("mid-unwind");
                    }
                } finally { P.Trace = P.Trace + 10; }
            }
            static int Main() {
                int caught = 0;
                try { P.Inner(); }
                catch (ArithmeticException e) { caught = 1; }
                catch (ArgumentException e) { caught = 2; }
                return caught * 100 + P.Trace;
            }
        }"""
        reference, _runs = run_all(src)
        assert reference == 111  # replacement exception; both finallies ran

    def test_finally_throw_on_normal_exit_propagates(self):
        src = """
        class P {
            static int Calls;
            static int Quiet() {
                try { P.Calls = P.Calls + 1; return 7; }
                finally {
                    if (P.Calls > 1) { throw new ArithmeticException("late"); }
                }
            }
            static int Main() {
                int first = P.Quiet();
                int second = 0;
                try { second = P.Quiet(); }
                catch (ArithmeticException e) { second = 42; }
                return first * 100 + second;
            }
        }"""
        reference, _runs = run_all(src)
        assert reference == 742  # normal exit once, finally-thrown once


def test_product_package_holds_one_mir_executor():
    """The classic MIR loop is a tests/ oracle only: no module of the
    ``repro`` package defines or names ``ClassicMachine``, and none imports
    from ``tests``, so nothing in the product can build the classic loop."""
    package = Path(repro.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 50  # the walk really covers the package
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.relative_to(package.parent)}:{getattr(node, 'lineno', 0)}"
            # def/class names, loaded and stored names, attributes, imports
            named = {getattr(node, field, None) for field in ("name", "id", "attr", "asname")}
            assert "ClassicMachine" not in named, where
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                imported = []
            assert all(name.split(".")[0] != "tests" for name in imported), where

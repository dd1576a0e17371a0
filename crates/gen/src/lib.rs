//! The one generator of MiniLang programs for the workspace's property
//! tests. One grammar emits source that is well typed by construction:
//! functions and calls, recursion, globals, one class with methods,
//! arrays, `int`/`float`/`bool`, `/` and `%`, `while` with `break` and
//! `continue`, `&&`/`||`, `print` and the builtins; each entry restricts
//! what each function may use. Every loop counts a counter its body cannot
//! assign up to a small bound and the one recursion has a literal depth,
//! so every program terminates. Most divisors and indices are kept in
//! range; unchecked ones keep the error paths reachable.
//!
//! ```
//! use proptest::prelude::*;
//! use proptest::test_runner::TestRng;
//!
//! let src = hps_gen::program().generate(&mut TestRng::from_seed(7));
//! assert!(src.contains("fn main()"));
//! ```

use hps_ir::{Ty, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Multi-function programs: scalar globals and `ga: int[]`, the class
/// `Cell` with a generated method, `bump` (assigns `g` and `h`), `f1`, a
/// recursive `f2` that assigns `g`, a float `fz`, a leaf `lf` small enough
/// to be inlined, and `main()`, which prints every variable at the end.
/// Half the programs touch `Cell`'s fields only through its methods, so
/// that the class can be hidden.
pub fn program() -> BoxedStrategy<String> {
    seeded(Gen::program)
}

/// `fn f(x: int, y: int, b: int[])` over scalar locals and `b`, without
/// calls, printing its locals and `b` at the end; `main(x, y)` calls it.
pub fn function() -> BoxedStrategy<String> {
    seeded(Gen::function)
}

/// `fn f(x: int)`: assignments, branches and counted loops over int
/// locals; no early exits, calls, arrays, output or traps.
pub fn structured() -> BoxedStrategy<String> {
    seeded(Gen::structured)
}

/// A block for the fragment engines, and the values to run it on.
#[derive(Clone, Debug)]
pub struct FragmentCase {
    /// `fn frag(s0: T0, .., s4: int) -> R { var t: int; var a: int[]; ..
    /// return e; }`, whose parameters are the fragment's slots: the hidden
    /// variables `s0`..`s2`, then the parameters `s3` and `s4`. A `void`
    /// `frag` has no trailing `return`.
    pub src: String,
    /// The starting values of the hidden variables.
    pub vars: Vec<Value>,
    /// The arguments.
    pub args: Vec<Value>,
    /// False when the block may contain what a fragment may not; a legal
    /// block means the same as the body of an open function.
    pub legal: bool,
}

/// Typed fragment blocks over typed slots. In a quarter, small-weight arms
/// add what a fragment may not contain: `print`, `return`, and the locals
/// `t` and `a` past the slots. One case in eight gives a slot a value of
/// another type.
pub fn fragment() -> BoxedStrategy<FragmentCase> {
    seeded(Gen::fragment)
}

/// The hidden variables ahead of the parameters in a fragment's slots.
pub const FRAGMENT_VARS: usize = 3;

/// The parameters in a fragment's slots.
pub const FRAGMENT_PARAMS: usize = 2;

fn seeded<T: 'static>(entry: fn(&mut Gen) -> T) -> BoxedStrategy<T> {
    let gen = move |seed| entry(&mut Gen(TestRng::from_seed(seed)));
    any::<u64>().prop_map(gen).boxed()
}

/// What the code of one function may use.
#[derive(Clone)]
struct Scope {
    /// Scalar variables: name, type, and whether code may assign it.
    vars: Vec<(&'static str, Ty, bool)>,
    /// One loop counter per nesting level, outermost first. A loop may not
    /// assign its counter or an enclosing loop's.
    counters: Vec<&'static str>,
    /// Int arrays and their lengths.
    arrays: Vec<(&'static str, usize)>,
    /// Functions: name, parameter types (`void` for a literal recursion
    /// depth) and return type.
    callees: Vec<(&'static str, Vec<Ty>, Ty)>,
    /// The return type, when code may return early.
    ret: Option<Ty>,
    /// Whether loops may `break` and `continue`.
    exits: bool,
    print: bool,
    /// Whether divisors and indices may go unchecked.
    traps: bool,
    /// The return type, when the constructs a fragment may not contain
    /// may occur.
    illegal: Option<Ty>,
    /// Expression nesting depth.
    depth: u32,
}

/// A scope over `vars`: space-separated `name` (an `int`) or `name:type`,
/// and `name:ro` for a read-only `int`.
fn scope(vars: &[&'static str], counters: &[&'static str]) -> Scope {
    let vars = vars.iter().flat_map(|spec| spec.split_whitespace());
    let vars = vars.map(|v| match v.split_once(':') {
        None => (v, Ty::Int, true),
        Some((name, "ro")) => (name, Ty::Int, false),
        Some((name, ty)) => (name, ty_named(ty), true),
    });
    Scope {
        vars: vars.collect(),
        counters: counters.to_vec(),
        arrays: Vec::new(),
        callees: Vec::new(),
        ret: None,
        exits: true,
        print: false,
        traps: false,
        illegal: None,
        depth: 3,
    }
}

/// Space-separated `name(types):ret`; a `depth` parameter is a literal.
fn callees(spec: &'static str) -> Vec<(&'static str, Vec<Ty>, Ty)> {
    let callee = |c: &'static str| {
        let (name, rest) = c.split_once('(').expect("name(params):ret");
        let (params, ret) = rest.split_once("):").expect("name(params):ret");
        let params = params.split(',').filter(|p| !p.is_empty());
        let params = params.map(|p| if p == "depth" { Ty::Void } else { ty_named(p) });
        (name, params.collect(), ty_named(ret))
    };
    spec.split_whitespace().map(callee).collect()
}

fn ty_named(name: &str) -> Ty {
    match name {
        "int" => Ty::Int,
        "float" => Ty::Float,
        "bool" => Ty::Bool,
        _ => unreachable!("a scalar type, not `{name}`"),
    }
}

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// The index of an arm, drawn by weight.
    fn arm(&mut self, weights: &[usize]) -> usize {
        let mut pick = self.below(weights.iter().sum());
        let mut arm = 0;
        while pick >= weights[arm] {
            pick -= weights[arm];
            arm += 1;
        }
        arm
    }

    fn value(&mut self, ty: &Ty) -> Value {
        match ty {
            Ty::Int => Value::Int(self.int_in(-8, 9)),
            Ty::Float => Value::Float(self.int_in(-6, 7) as f64 * 0.5),
            _ => Value::Bool(self.one_in(2)),
        }
    }

    fn scalar_ty(&mut self) -> Ty {
        [Ty::Int, Ty::Int, Ty::Int, Ty::Float, Ty::Bool][self.below(5)].clone()
    }

    fn expr(&mut self, s: &Scope, ty: &Ty) -> String {
        self.expr_at(s, ty, s.depth)
    }

    /// An expression of type `ty`, at most `depth` operators deep.
    fn expr_at(&mut self, s: &Scope, ty: &Ty, depth: u32) -> String {
        if depth == 0 || self.one_in(3) {
            return self.leaf(s, ty);
        }
        match ty {
            Ty::Int => self.int_expr(s, depth - 1),
            Ty::Float => self.float_expr(s, depth - 1),
            _ => self.bool_expr(s, depth - 1),
        }
    }

    fn leaf(&mut self, s: &Scope, ty: &Ty) -> String {
        if s.illegal.is_some() && *ty == Ty::Int && self.one_in(12) {
            return self.pick(&["t", "len(a)"]).to_string();
        }
        let vars: Vec<&str> = s.vars.iter().filter(|v| v.1 == *ty).map(|v| v.0).collect();
        if !vars.is_empty() && self.below(7) < 4 {
            return self.pick(&vars).to_string();
        }
        literal(self.value(ty))
    }

    fn int_expr(&mut self, s: &Scope, d: u32) -> String {
        let (t, a) = (usize::from(s.traps), usize::from(!s.arrays.is_empty()));
        let c = usize::from(s.callees.iter().any(|c| c.2 == Ty::Int));
        let e = |g: &mut Gen| g.expr_at(s, &Ty::Int, d);
        match self.arm(&[16, 6, t, 2, 2, 4, 2, 1, 4 * a, a * t, 2 * a, 8 * c]) {
            0 => format!("({} {} {})", e(self), self.pick(&["+", "-", "*"]), e(self)),
            1 => format!(
                "({} {} (abs({}) + 1))",
                e(self),
                self.pick(&["/", "%"]),
                e(self)
            ),
            2 => format!("({} {} {})", e(self), self.pick(&["/", "%"]), e(self)),
            3 => format!("(-{})", e(self)),
            4 => format!("abs({})", e(self)),
            5 => format!("{}({}, {})", self.pick(&["min", "max"]), e(self), e(self)),
            6 => format!("int({})", self.expr_at(s, &Ty::Float, d)),
            7 => format!("int({})", self.expr_at(s, &Ty::Bool, d)),
            8 => {
                let (array, n) = self.pick(&s.arrays);
                format!("{array}[abs({}) % {n}]", e(self))
            }
            9 => format!("{}[{}]", self.pick(&s.arrays).0, e(self)),
            10 => format!("len({})", self.pick(&s.arrays).0),
            _ => self.call(s, Some(&Ty::Int), d),
        }
    }

    fn float_expr(&mut self, s: &Scope, d: u32) -> String {
        let c = usize::from(s.callees.iter().any(|c| c.2 == Ty::Float));
        let e = |g: &mut Gen| g.expr_at(s, &Ty::Float, d);
        match self.arm(&[6, 1, 1, 1, 2, 2, 2 * c]) {
            0 => format!(
                "({} {} {})",
                e(self),
                self.pick(&["+", "-", "*", "/"]),
                e(self)
            ),
            1 => format!("(-{})", e(self)),
            2 => format!("{}({}, {})", self.pick(&["min", "max"]), e(self), e(self)),
            3 => format!("abs({})", e(self)),
            4 => format!(
                "{}({})",
                self.pick(&["sqrt", "exp", "log", "floor"]),
                e(self)
            ),
            5 => format!("float({})", self.expr_at(s, &Ty::Int, d)),
            _ => self.call(s, Some(&Ty::Float), d),
        }
    }

    fn bool_expr(&mut self, s: &Scope, d: u32) -> String {
        let cmp = ["==", "!=", "<", "<=", ">", ">="];
        let e = |g: &mut Gen| g.expr_at(s, &Ty::Bool, d);
        match self.arm(&[6, 2, 1, 3, 1]) {
            arm @ (0 | 1) => {
                let ty = [Ty::Int, Ty::Float][arm].clone();
                let l = self.expr_at(s, &ty, d);
                format!("{l} {} {}", self.pick(&cmp), self.expr_at(s, &ty, d))
            }
            2 => format!("({}) {} ({})", e(self), self.pick(&cmp[..2]), e(self)),
            3 => format!("({}) {} ({})", e(self), self.pick(&["&&", "||"]), e(self)),
            _ => format!("!({})", e(self)),
        }
    }

    /// A call of one of the functions in scope, of those that return `ty`
    /// if given.
    fn call(&mut self, s: &Scope, ty: Option<&Ty>, d: u32) -> String {
        let callees: Vec<_> = s
            .callees
            .iter()
            .filter(|c| ty.is_none_or(|ty| c.2 == *ty))
            .collect();
        let (name, params, _) = callees[self.below(callees.len())];
        let args: Vec<String> = params
            .iter()
            .map(|p| match p {
                Ty::Void => self.int_in(0, 4).to_string(),
                ty => self.expr_at(s, ty, d),
            })
            .collect();
        format!("{name}({})", args.join(", "))
    }

    /// Up to `max - 1` statements, each on its own line at `pad`.
    fn block(&mut self, s: &Scope, level: usize, nesting: u32, max: usize, pad: &str) -> String {
        let n = self.below(max);
        (0..n)
            .map(|_| format!("{pad}{}\n", self.stmt(s, level, nesting, pad)))
            .collect()
    }

    /// One statement inside `level` loops, with `nesting` more levels of
    /// statements allowed under it.
    fn stmt(&mut self, s: &Scope, level: usize, nesting: u32, pad: &str) -> String {
        let writable: Vec<_> = s
            .vars
            .iter()
            .filter(|v| v.2 && !s.counters[..level].contains(&v.0))
            .collect();
        let (a, n) = (usize::from(!s.arrays.is_empty()), usize::from(nesting > 0));
        let weights = [
            12 * usize::from(!writable.is_empty()),
            4 * a,
            a * usize::from(s.traps),
            4 * usize::from(s.print),
            2 * usize::from(!s.callees.is_empty()),
            5 * n,
            3 * n * usize::from(level < s.counters.len()),
            2 * usize::from(s.exits && level > 0),
            usize::from(s.ret.is_some()),
            3 * usize::from(s.illegal.is_some()),
        ];
        let inner = format!("{pad}    ");
        match self.arm(&weights) {
            0 => {
                let (name, ty, _) = writable[self.below(writable.len())];
                format!("{name} = {};", self.expr(s, ty))
            }
            arm @ (1 | 2) => {
                let (array, len) = self.pick(&s.arrays);
                let i = self.expr(s, &Ty::Int);
                let i = if arm == 1 {
                    format!("abs({i}) % {len}")
                } else {
                    i
                };
                format!("{array}[{i}] = {};", self.expr(s, &Ty::Int))
            }
            3 => self.print(s),
            4 => format!("{};", self.call(s, None, s.depth)),
            5 => {
                let cond = self.expr(s, &Ty::Bool);
                let then = self.block(s, level, nesting - 1, 4, &inner);
                let els = self.block(s, level, nesting - 1, 3, &inner);
                format!("if ({cond}) {{\n{then}{pad}}} else {{\n{els}{pad}}}")
            }
            6 => {
                let (c, bound) = (s.counters[level], self.int_in(1, 5));
                let cond = self.expr(s, &Ty::Bool);
                let body = self.block(s, level + 1, nesting - 1, 4, &inner);
                format!(
                    "{c} = 0;\n{pad}while ({c} < {bound} && ({cond})) {{\n\
                     {inner}{c} = {c} + 1;\n{body}{pad}}}"
                )
            }
            7 => self.pick(&["break;", "continue;"]).to_string(),
            8 => self.ret(s, s.ret.as_ref()),
            _ => match self.below(3) {
                0 => self.print(s),
                1 => format!("t = {};", self.expr(s, &Ty::Int)),
                _ => self.ret(s, s.illegal.as_ref()),
            },
        }
    }

    /// A function body: its block and its return expression.
    fn body(&mut self, s: &Scope, nesting: u32, max: usize, pad: &str) -> (String, String) {
        let ret = s.ret.clone().unwrap_or(Ty::Int);
        (self.block(s, 0, nesting, max, pad), self.expr(s, &ret))
    }

    fn print(&mut self, s: &Scope) -> String {
        let ty = self.scalar_ty();
        format!("print({});", self.expr(s, &ty))
    }

    fn ret(&mut self, s: &Scope, ty: Option<&Ty>) -> String {
        match ty {
            Some(Ty::Void) | None => "return;".to_string(),
            Some(ty) => format!("return {};", self.expr(s, ty)),
        }
    }

    fn program(&mut self) -> String {
        const GLOBALS: &str = "g h gf:float gb:bool";
        let base = |vars: &[&'static str], counters| Scope {
            arrays: vec![("ga", 4)],
            print: true,
            traps: true,
            ..scope(vars, counters)
        };
        let (c1, c2) = (&["c0"][..], &["c0", "c1"][..]);

        // f1(a, b): locals of every type; calls `bump`.
        let f1 = Scope {
            callees: callees("bump(int):int"),
            ret: Some(Ty::Int),
            ..base(&["a x y z:float q:bool b:ro", GLOBALS], c2)
        };
        let (f1_body, f1_ret) = self.body(&f1, 2, 4, "    ");
        // f2(a, d): recursive on `d`; calls `bump` and `f1`.
        let f2 = Scope {
            callees: callees("bump(int):int f1(int,int):int"),
            ..base(&["a d:ro", GLOBALS], c1)
        };
        let (f2_body, f2_ret) = self.body(&f2, 1, 3, "    ");
        let f2_arg = self.expr(&f2, &Ty::Int);
        // fz(p, r): float and bool parameters; calls `bump`.
        let fz = Scope {
            callees: callees("bump(int):int"),
            ret: Some(Ty::Float),
            ..base(&["p:float r:bool k", GLOBALS], c1)
        };
        let (fz_body, fz_ret) = self.body(&fz, 1, 3, "    ");
        // lf(a, b): a scalar leaf, small enough to run inline in its
        // callers; it reads `t` before assigning it and calls nothing.
        let lf = Scope {
            arrays: Vec::new(),
            print: false,
            ret: Some(Ty::Int),
            depth: 1,
            ..base(&["a b t g"], c1)
        };
        let (lf_body, lf_ret) = self.body(&lf, 1, 3, "    ");
        // Cell.step(k): the fields through `self`; calls `bump` and the
        // other methods.
        let step = Scope {
            callees: callees("bump(int):int self.get():int self.put(int):int"),
            ret: Some(Ty::Int),
            ..base(&["k m self.v self.w self.u:float", GLOBALS], c1)
        };
        let (step_body, step_ret) = self.body(&step, 1, 4, "        ");
        // main(): calls everything; the fields of `c` only through methods
        // in half the programs.
        let fields = ["c.v c.w c.u:float", ""][self.below(2)];
        let main = Scope {
            arrays: vec![("ga", 4), ("arr", 3)],
            callees: callees(
                "bump(int):int f1(int,int):int f2(int,depth):int lf(int,int):int \
                 fz(float,bool):float c.get():int c.put(int):int c.step(int):int \
                 c.scale(float):float",
            ),
            ..base(&["x y z:float q:bool", GLOBALS, fields], c2)
        };
        let main_body = self.block(&main, 0, 2, 7, "    ");
        let (g, h) = (self.int_in(-2, 5), self.int_in(-2, 5));
        let (gf, gb) = (literal(self.value(&Ty::Float)), self.one_in(2));
        format!(
            "global g: int = {g};
global h: int = {h};
global gf: float = {gf};
global gb: bool = {gb};
global ga: int[] = new int[4];
class Cell {{
    v: int;
    w: int;
    u: float;
    fn get() -> int {{ return self.v; }}
    fn put(k: int) -> int {{ self.v = self.v + k; self.w = k; return self.w; }}
    fn peek() -> int {{ return self.w; }}
    fn scale(k: float) -> float {{ self.u = self.u * 0.5 + k; return self.u; }}
    fn step(k: int) -> int {{
        var m: int = k;
        var c0: int;
{step_body}        return {step_ret};
    }}
}}
fn bump(k: int) -> int {{ g = g + k; h = h + 1; return k; }}
fn f1(a: int, b: int) -> int {{
    var x: int = a; var y: int = b; var z: float = gf; var q: bool = gb;
    var c0: int; var c1: int;
{f1_body}    return {f1_ret};
}}
fn f2(a: int, d: int) -> int {{
    var c0: int;
    if (d <= 0) {{ return a; }}
    g = g + a;
{f2_body}    return f2({f2_arg}, d - 1) + {f2_ret};
}}
fn fz(p: float, r: bool) -> float {{
    var k: int = int(p); var c0: int;
{fz_body}    return {fz_ret};
}}
fn lf(a: int, b: int) -> int {{
    var t: int; var c0: int;
    g = g + t;
{lf_body}    if (t > a) {{ return t % b; }}
    return {lf_ret};
}}
fn main() {{
    var x: int = 1; var y: int = 2; var z: float = 0.5; var q: bool = true;
    var arr: int[] = new int[3]; var c: Cell = new Cell();
    var i: int = 0; var c0: int; var c1: int;
    while (i < 3) {{ x = x + lf(i, y); i = i + 1; }}
    y = y + f2(x, 3);
{main_body}    print(x); print(y); print(z); print(q); print(g); print(h); print(gf); print(gb);
    print(c.get()); print(c.peek()); print(c.scale(0.0));
    print(ga[0]); print(ga[1]); print(ga[2]); print(ga[3]);
    print(arr[0]); print(arr[1]); print(arr[2]);
}}
"
        )
    }

    fn function(&mut self) -> String {
        let s = Scope {
            arrays: vec![("b", 8)],
            print: true,
            ret: Some(Ty::Void),
            ..scope(&["v0 v1 v2 v3 fv:float bv:bool x:ro y:ro"], &["c0", "c1"])
        };
        let body = self.block(&s, 0, 2, 9, "    ");
        format!(
            "fn f(x: int, y: int, b: int[]) {{
    var v0: int = x; var v1: int = y - 1; var v2: int = 2; var v3: int = 5;
    var fv: float = float(x) * 0.5; var bv: bool = x < y; var c0: int; var c1: int;
{body}    print(v0); print(v1); print(v2); print(v3); print(fv); print(bv);
    var k: int = 0;
    while (k < 8) {{ print(b[k]); k = k + 1; }}
}}
fn main(x: int, y: int) {{
    var b: int[] = new int[8];
    f(x, y, b);
}}
"
        )
    }

    fn structured(&mut self) -> String {
        let s = Scope {
            exits: false,
            ..scope(&["v0 v1 v2 v3 x:ro"], &["c0", "c1"])
        };
        let body = self.block(&s, 0, 2, 7, "    ");
        format!(
            "fn f(x: int) {{
    var v0: int = 0; var v1: int = 1; var v2: int = 2; var v3: int = 3;
    var c0: int; var c1: int;
{body}}}
"
        )
    }

    fn fragment(&mut self) -> FragmentCase {
        let mut tys: Vec<Ty> = (0..FRAGMENT_VARS).map(|_| self.scalar_ty()).collect();
        tys.extend([Ty::Int, Ty::Int]);
        let ret = [Ty::Int, Ty::Int, Ty::Float, Ty::Bool, Ty::Void][self.below(5)].clone();
        let names = ["s0", "s1", "s2", "s3", "s4"];
        let vars = names.iter().zip(&tys).map(|(&n, ty)| (n, ty.clone(), true));
        let legal = !self.one_in(4);
        let s = Scope {
            vars: vars.collect(),
            illegal: (!legal).then(|| ret.clone()),
            traps: self.one_in(2),
            ..scope(&[], &["s4", "s3"])
        };
        let body = self.block(&s, 0, 3, 7, "    ");
        let (arrow, tail) = match &ret {
            Ty::Void => (String::new(), String::new()),
            ty => (
                format!(" -> {ty}"),
                format!("    return {};\n", self.expr(&s, ty)),
            ),
        };
        let params: Vec<String> = names
            .iter()
            .zip(&tys)
            .map(|(n, ty)| format!("{n}: {ty}"))
            .collect();
        let mut values: Vec<Value> = tys.iter().map(|ty| self.value(ty)).collect();
        if self.one_in(8) {
            let (slot, other) = (self.below(values.len()), self.scalar_ty());
            values[slot] = self.value(&other);
        }
        let args = values.split_off(FRAGMENT_VARS);
        let params = params.join(", ");
        FragmentCase {
            src: format!(
                "fn frag({params}){arrow} {{\n    var t: int;\n    var a: int[];\n{body}{tail}}}\n"
            ),
            vars: values,
            args,
            legal,
        }
    }
}

/// MiniLang source for a literal; negative ones parenthesised.
fn literal(v: Value) -> String {
    let text = match v {
        Value::Int(n) => n.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Bool(b) => b.to_string(),
    };
    if text.starts_with('-') {
        format!("({text})")
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 256 cases of every entry parse and type-check.
    #[test]
    fn every_entry_is_well_typed() {
        let mut rng = TestRng::from_seed(26);
        for _ in 0..256 {
            for src in [
                program().generate(&mut rng),
                function().generate(&mut rng),
                structured().generate(&mut rng),
                fragment().generate(&mut rng).src,
            ] {
                if let Err(e) = hps_lang::parse(&src) {
                    panic!("{e}\n{src}");
                }
            }
        }
    }
}

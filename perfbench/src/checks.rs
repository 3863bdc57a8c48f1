//! Output checks that recompute what the program should produce instead of
//! comparing against a stored copy of today's output, so a later change
//! that corrects the method still passes them.

use cl_frontend::ast::{
    AddressSpace, Block, Expr, FunctionDef, ScalarType, Stmt, TranslationUnit, Type,
};
use cl_frontend::sema::KernelSignature;
use cldrive::{execute, ArgBinding, Buffer, BufferSpace, ExecLimits, NDRange, Scalar};
use clgen::{ArgSpec, ArgumentSpec};
use predictive::{BenchmarkResult, Dataset};

/// The C scope rule and the vector-literal element count, which `cl-frontend`
/// sema does not enforce: the first violation in `unit`, if any.
///
/// * A declaration may not repeat a name already declared in the same scope.
///   A function's parameters share the scope of its body's outermost block,
///   so `const int d) { int d = …` is a redeclaration. A `for` initialiser
///   opens a scope of its own and the loop body nests inside it.
/// * `(floatN)(e1, …, ek)` must supply exactly N components, or a single
///   scalar to broadcast. Only components whose width is known are counted;
///   a literal with an element of unknown width is flagged only when it has
///   more elements than lanes.
pub fn scope_fault(unit: &TranslationUnit) -> Option<String> {
    let mut walker = ScopeWalker::default();
    for function in unit.functions() {
        walker.function(function);
        if walker.fault.is_some() {
            break;
        }
    }
    walker.fault
}

#[derive(Default)]
struct ScopeWalker {
    /// Innermost scope last: (name, type) of every declaration in it.
    scopes: Vec<Vec<(String, Type)>>,
    fault: Option<String>,
}

impl ScopeWalker {
    fn function(&mut self, f: &FunctionDef) {
        self.scopes.push(Vec::new());
        for p in &f.params {
            if !p.name.is_empty() {
                self.declare(&p.name, &p.ty, &f.name);
            }
        }
        if let Some(body) = &f.body {
            // The outermost block shares the parameters' scope.
            for stmt in &body.stmts {
                self.stmt(stmt, &f.name);
            }
        }
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: &Type, function: &str) {
        let scope = self.scopes.last_mut().expect("a scope is open");
        if scope.iter().any(|(n, _)| n == name) && self.fault.is_none() {
            self.fault = Some(format!("`{name}` redeclared in one scope of `{function}`"));
        }
        scope.push((name.to_string(), ty.clone()));
    }

    fn block(&mut self, block: &Block, function: &str) {
        self.scopes.push(Vec::new());
        for stmt in &block.stmts {
            self.stmt(stmt, function);
        }
        self.scopes.pop();
    }

    /// A statement that is a loop or branch body: a block opens its own
    /// scope; a lone statement is walked in place.
    fn body(&mut self, stmt: &Stmt, function: &str) {
        match stmt {
            Stmt::Block(b) => self.block(b, function),
            other => {
                self.scopes.push(Vec::new());
                self.stmt(other, function);
                self.scopes.pop();
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt, function: &str) {
        match stmt {
            Stmt::Block(b) => self.block(b, function),
            Stmt::Decl(d) => {
                for var in &d.vars {
                    if let Some(init) = &var.init {
                        self.expr(init, function);
                    }
                    self.declare(&var.name, &var.ty, function);
                }
            }
            Stmt::Expr(e) => self.expr(e, function),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond, function);
                self.body(then_branch, function);
                if let Some(e) = else_branch {
                    self.body(e, function);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(Vec::new());
                if let Some(init) = init {
                    self.stmt(init, function);
                }
                if let Some(c) = cond {
                    self.expr(c, function);
                }
                if let Some(s) = step {
                    self.expr(s, function);
                }
                self.body(body, function);
                self.scopes.pop();
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond, function);
                self.body(body, function);
            }
            Stmt::Switch { cond, cases } => {
                self.expr(cond, function);
                // The cases of one switch share its body's block scope.
                self.scopes.push(Vec::new());
                for case in cases {
                    for s in &case.body {
                        self.stmt(s, function);
                    }
                }
                self.scopes.pop();
            }
            Stmt::Return(Some(e)) => self.expr(e, function),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Empty | Stmt::Error(_) => {}
        }
    }

    fn expr(&mut self, e: &Expr, function: &str) {
        match e {
            Expr::VectorLit { ty, elems } => {
                if let Type::Vector(_, lanes) = ty {
                    let lanes = *lanes as usize;
                    let widths: Option<Vec<usize>> = elems.iter().map(|x| self.width(x)).collect();
                    let bad = match widths {
                        Some(w) => !(w.iter().sum::<usize>() == lanes || w == [1]),
                        None => elems.len() > lanes,
                    };
                    if bad && self.fault.is_none() {
                        self.fault = Some(format!(
                            "vector literal of {lanes} lanes with {} elements in `{function}`",
                            elems.len()
                        ));
                    }
                }
                for x in elems {
                    self.expr(x, function);
                }
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Assign { lhs, rhs, .. } => {
                self.expr(lhs, function);
                self.expr(rhs, function);
            }
            Expr::Unary { expr, .. }
            | Expr::Postfix { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Member { base: expr, .. } => self.expr(expr, function),
            Expr::Conditional {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond, function);
                self.expr(then_expr, function);
                self.expr(else_expr, function);
            }
            Expr::Call { args, .. } | Expr::Comma(args) => {
                for a in args {
                    self.expr(a, function);
                }
            }
            Expr::Index { base, index } => {
                self.expr(base, function);
                self.expr(index, function);
            }
            Expr::SizeOf { expr: Some(x), .. } => self.expr(x, function),
            _ => {}
        }
    }

    /// Component count of an expression, when it can be known without full
    /// type checking.
    fn width(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::CharLit(_) => Some(1),
            Expr::VectorLit { ty, .. } | Expr::Cast { ty, .. } => type_width(ty),
            Expr::Ident(name) => self
                .scopes
                .iter()
                .rev()
                .find_map(|s| s.iter().rev().find(|(n, _)| n == name))
                .and_then(|(_, ty)| type_width(ty)),
            Expr::Unary { expr, .. } => self.width(expr),
            Expr::Binary { lhs, rhs, .. } => Some(self.width(lhs)?.max(self.width(rhs)?)),
            _ => None,
        }
    }
}

fn type_width(ty: &Type) -> Option<usize> {
    match ty {
        Type::Scalar(_) => Some(1),
        Type::Vector(_, n) => Some(*n as usize),
        _ => None,
    }
}

/// True when `sig` has exactly the argument types of `spec`.
pub fn matches_spec(sig: &KernelSignature, spec: &ArgumentSpec) -> bool {
    sig.args.len() == spec.args.len()
        && sig
            .args
            .iter()
            .zip(&spec.args)
            .all(|(arg, want)| match want {
                ArgSpec::GlobalBuffer { elem } => matches!(
                    &arg.ty,
                    Type::Pointer { pointee, address_space: AddressSpace::Global, .. }
                        if **pointee == Type::Scalar(scalar(elem))
                ),
                ArgSpec::LocalBuffer { elem } => matches!(
                    &arg.ty,
                    Type::Pointer { pointee, address_space: AddressSpace::Local, .. }
                        if **pointee == Type::Scalar(scalar(elem))
                ),
                ArgSpec::Scalar { ty } => arg.ty == Type::Scalar(scalar(ty)),
            })
}

fn scalar(name: &str) -> ScalarType {
    ScalarType::from_name(name).unwrap_or(ScalarType::Void)
}

/// Kernels that the C scope rule or the vector-literal rule forbids, one per
/// shape of the sema fault. Each is an operation of the paper-fig7 workload:
/// it passes when `cl-frontend` rejects the kernel, and fails while sema
/// accepts it. They do not depend on the workload seed.
pub const SEMA_FAULT_PROBES: [&str; 4] = [
    // A body-level redeclaration of a parameter.
    "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int d = get_global_id(0);\n  if (d < 64) {\n    c[d] = a[d] + b[d];\n  }\n}\n",
    // Two declarations of one name in one block.
    "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  float e = a[0];\n  c[0] = e * b[0];\n}\n",
    // A float4 literal with two elements.
    "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  float4 f = (float4)(0.0f, 0.0f);\n  c[e] = a[e] + f.x + b[e];\n}\n",
    // An int2 literal with three elements.
    "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  int2 f = (int2)(1, 2, 3);\n  c[e] = a[e] * f.y + b[e];\n}\n",
];

/// One probe: true when the frontend rejects it, as it should.
pub fn probe_rejected(source: &str) -> bool {
    !cl_frontend::compile(source, &Default::default()).is_ok()
}

/// Relative tolerance of the interpreter reference checks. The interpreter
/// models `float` as `f64`, so the plain-Rust reference computes in `f64`
/// too and agreement is expected to the last bits.
pub const INTERP_TOLERANCE: f64 = 1e-9;

/// Elements of the interpreter reference payloads.
const REFERENCE_N: usize = 256;

/// Interpret three kernel shapes (element-wise, loop-carried, stencil) and
/// one strided gather on fixed inputs, and compare every output element
/// with the same computation written in plain Rust. Returns a description
/// of each mismatch.
pub fn interpreter_reference_mismatches() -> Vec<String> {
    let n = REFERENCE_N;
    let a: Vec<f64> = (0..n)
        .map(|i| ((i * 37 % 101) as f64) * 0.25 - 7.0)
        .collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 11 % 53) as f64) * 0.5 + 1.0).collect();
    let shapes: [(&str, &str, Vec<f64>); 4] = [
        (
            "element-wise",
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  if (e < d) {\n    c[e] = a[e] * 2.0f + b[e];\n  }\n}\n",
            (0..n).map(|i| a[i] * 2.0 + b[i]).collect(),
        ),
        (
            "loop-carried",
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  float f = 0.0f;\n  for (int g = 0; g <= e % 8; g++) {\n    f = f * 0.5f + a[(e + g) % d];\n  }\n  c[e] = f + b[e];\n}\n",
            (0..n)
                .map(|i| {
                    let mut f = 0.0;
                    for g in 0..=(i % 8) {
                        f = f * 0.5 + a[(i + g) % n];
                    }
                    f + b[i]
                })
                .collect(),
        ),
        (
            "stencil",
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  if (e > 0 && e < d - 1) {\n    c[e] = 0.25f * a[e - 1] + 0.5f * a[e] + 0.25f * a[e + 1];\n  } else {\n    c[e] = b[e];\n  }\n}\n",
            (0..n)
                .map(|i| {
                    if i > 0 && i < n - 1 {
                        0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1]
                    } else {
                        b[i]
                    }
                })
                .collect(),
        ),
        (
            "strided",
            "__kernel void A(__global float* a, __global float* b, __global float* c, const int d) {\n  int e = get_global_id(0);\n  c[e] = a[(e * 3) % d] - b[(e * 5 + 1) % d];\n}\n",
            (0..n).map(|i| a[(i * 3) % n] - b[(i * 5 + 1) % n]).collect(),
        ),
    ];
    let mut problems = Vec::new();
    for (shape, source, expected) in shapes {
        let compiled = cl_frontend::compile(source, &Default::default());
        if !compiled.is_ok() {
            problems.push(format!("{shape}: reference kernel does not compile"));
            continue;
        }
        let buffer = |values: &[f64]| {
            let mut buf = Buffer::zeroed(ScalarType::Float, 1, n, BufferSpace::Global);
            for (i, v) in values.iter().enumerate() {
                buf.store_lane(i as i64, 0, Scalar::F(*v));
            }
            ArgBinding::GlobalBuffer(buf)
        };
        let args = vec![
            buffer(&a),
            buffer(&b),
            buffer(&vec![0.0; n]),
            ArgBinding::Scalar(Scalar::I(n as i64)),
        ];
        let result = match execute(
            &compiled.unit,
            "A",
            args,
            NDRange::linear(n, 32),
            &ExecLimits::default(),
        ) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("{shape}: interpreter error {e}"));
                continue;
            }
        };
        let ArgBinding::GlobalBuffer(out) = &result.args[2] else {
            problems.push(format!("{shape}: output binding is not a buffer"));
            continue;
        };
        for (i, want) in expected.iter().enumerate() {
            let got = out.load_lane(i as i64, 0).as_f64();
            if (got - want).abs() > INTERP_TOLERANCE * want.abs().max(1.0) {
                problems.push(format!("{shape}: c[{i}] = {got}, expected {want}"));
                break;
            }
        }
    }
    problems
}

/// Check each LOOCV fold against values recomputed from its held-out
/// examples: `oracle_time` and `static_time` must equal the sums over the
/// fold's examples (static = the best single device over the whole
/// evaluation set), and no prediction can beat the oracle.
pub fn loocv_mismatches(evaluated: &Dataset, folds: &[BenchmarkResult]) -> Vec<String> {
    let static_class = evaluated.best_static_mapping();
    let mut problems = Vec::new();
    if folds.len() != evaluated.benchmarks().len() {
        problems.push(format!(
            "{} folds for {} benchmarks",
            folds.len(),
            evaluated.benchmarks().len()
        ));
    }
    for fold in folds {
        let held_out = evaluated.of_benchmark(&fold.benchmark);
        let oracle: f64 = held_out.examples.iter().map(|e| e.oracle_time()).sum();
        let fixed: f64 = held_out
            .examples
            .iter()
            .map(|e| e.time_of(static_class))
            .sum();
        let m = &fold.metrics;
        if m.count != held_out.len() || m.oracle_time != oracle || m.static_time != fixed {
            problems.push(format!(
                "fold {}: count/oracle/static {}/{}/{} vs recomputed {}/{oracle}/{fixed}",
                fold.benchmark,
                m.count,
                m.oracle_time,
                m.static_time,
                held_out.len()
            ));
        }
        if m.oracle_time > m.predicted_time {
            problems.push(format!(
                "fold {}: oracle time {} exceeds predicted time {}",
                fold.benchmark, m.oracle_time, m.predicted_time
            ));
        }
    }
    problems
}

//! The compiled form of a [`QoiExpr`] that the domain-wide scans run.
//!
//! [`Program::compile`] flattens the boxed tree once per scan into a
//! postfix op list. [`Program::run`] then evaluates it over one block of
//! at most [`BLOCK`] consecutive points: each stack slot holds a value
//! lane per point and, when error bounds are asked for, the interval's
//! `lo`/`hi` lanes too. A point goes through the same IEEE operations, in
//! the same order, as [`QoiExpr::eval`] and [`QoiExpr::eval_interval`]
//! (the ops below call the same [`Interval`] methods and repeat the same
//! scalar expressions), so every pointwise result is bit-identical to the
//! per-point API; the tests hold the scans to it bit for bit.

use crate::expr::QoiExpr;
use crate::interval::Interval;

/// Points per block: the lane width of every stack slot.
pub(crate) const BLOCK: usize = 256;

/// One postfix instruction; operands are the top one or two slots.
#[derive(Clone, Copy)]
enum Op {
    Var(usize),
    Const(f64),
    Add,
    Sub,
    Mul,
    Scale(f64),
    Square,
    Sqrt,
    Abs,
    Ln(f64),
}

/// A [`QoiExpr`] as a postfix program over block lanes.
pub(crate) struct Program {
    ops: Vec<Op>,
    /// Stack slots the program needs at its deepest.
    depth: usize,
}

/// One stack slot's lanes over a block.
#[derive(Clone)]
pub(crate) struct Slot {
    pub(crate) v: [f64; BLOCK],
    pub(crate) lo: [f64; BLOCK],
    pub(crate) hi: [f64; BLOCK],
}

impl Program {
    /// Flatten `expr` into postfix order.
    pub(crate) fn compile(expr: &QoiExpr) -> Program {
        let mut program = Program {
            ops: Vec::new(),
            depth: 0,
        };
        program.emit(expr, 0);
        program
    }

    /// Emit `e` so that its result lands in slot `sp`.
    fn emit(&mut self, e: &QoiExpr, sp: usize) {
        self.depth = self.depth.max(sp + 1);
        let op = match e {
            QoiExpr::Var(i) => Op::Var(*i),
            QoiExpr::Const(c) => Op::Const(*c),
            QoiExpr::Add(a, b) | QoiExpr::Sub(a, b) | QoiExpr::Mul(a, b) => {
                self.emit(a, sp);
                self.emit(b, sp + 1);
                match e {
                    QoiExpr::Add(..) => Op::Add,
                    QoiExpr::Sub(..) => Op::Sub,
                    _ => Op::Mul,
                }
            }
            QoiExpr::Scale(c, a) => {
                self.emit(a, sp);
                Op::Scale(*c)
            }
            QoiExpr::Square(a) => {
                self.emit(a, sp);
                Op::Square
            }
            QoiExpr::Sqrt(a) => {
                self.emit(a, sp);
                Op::Sqrt
            }
            QoiExpr::Abs(a) => {
                self.emit(a, sp);
                Op::Abs
            }
            QoiExpr::Ln { arg, floor } => {
                self.emit(arg, sp);
                Op::Ln(*floor)
            }
        };
        self.ops.push(op);
    }

    /// The stack a run of blocks reuses: allocate once per run.
    pub(crate) fn stack(&self) -> Vec<Slot> {
        vec![
            Slot {
                v: [0.0; BLOCK],
                lo: [0.0; BLOCK],
                hi: [0.0; BLOCK],
            };
            self.depth
        ]
    }

    /// Evaluate the points `start..start + len` (`len ≤ BLOCK`) of `vars`
    /// into `stack` and return the result slot: its `v` lanes hold the
    /// QoI values and, with `errs`, its `lo`/`hi` lanes the image of the
    /// boxes `[x_i − errs[i], x_i + errs[i]]`. Each variable is widened
    /// to `f64` as its block is loaded.
    pub(crate) fn run<'s, T: Copy + Into<f64>>(
        &self,
        vars: &[&[T]],
        errs: Option<&[f64]>,
        start: usize,
        len: usize,
        stack: &'s mut [Slot],
    ) -> &'s Slot {
        let lanes = Lanes {
            len,
            intervals: errs.is_some(),
        };
        let mut sp = 0usize;
        for &op in &self.ops {
            // The operand slot of the ops that pop; the leaves push at
            // `sp` instead (an empty stack has no top).
            let top = sp.wrapping_sub(1);
            match op {
                Op::Var(i) => {
                    load(
                        &mut stack[sp],
                        &vars[i][start..start + len],
                        errs.map(|e| e[i]),
                    );
                    sp += 1;
                }
                Op::Const(c) => {
                    let slot = &mut stack[sp];
                    slot.v[..len].fill(c);
                    if lanes.intervals {
                        let p = Interval::point(c);
                        slot.lo[..len].fill(p.lo);
                        slot.hi[..len].fill(p.hi);
                    }
                    sp += 1;
                }
                Op::Add => sp = lanes.binary(stack, top, |a, b| a + b, Interval::add),
                Op::Sub => sp = lanes.binary(stack, top, |a, b| a - b, Interval::sub),
                Op::Mul => sp = lanes.binary(stack, top, |a, b| a * b, Interval::mul),
                Op::Scale(c) => lanes.unary(&mut stack[top], |a| c * a, |a| a.scale(c)),
                Op::Square => lanes.unary(&mut stack[top], |a| a * a, Interval::square),
                Op::Sqrt => lanes.unary(&mut stack[top], |a| a.max(0.0).sqrt(), Interval::sqrt),
                Op::Abs => lanes.unary(&mut stack[top], f64::abs, Interval::abs),
                Op::Ln(floor) => lanes.unary(
                    &mut stack[top],
                    |a| a.max(floor).ln(),
                    |a| a.ln_clamped(floor),
                ),
            }
        }
        &stack[0]
    }
}

/// Widen one variable's block into `slot`, with its error boxes when the
/// variable has an error bound `err`.
fn load<T: Copy + Into<f64>>(slot: &mut Slot, src: &[T], err: Option<f64>) {
    let len = src.len();
    for (v, &x) in slot.v[..len].iter_mut().zip(src) {
        *v = x.into();
    }
    if let Some(e) = err {
        let lanes = slot.lo[..len].iter_mut().zip(&mut slot.hi[..len]);
        for ((lo, hi), &v) in lanes.zip(&slot.v[..len]) {
            let b = Interval::ball(v, e);
            *lo = b.lo;
            *hi = b.hi;
        }
    }
}

/// The lanes of one block an op touches: the first `len` of each slot,
/// and the interval lanes only when the scan asks for error bounds.
#[derive(Clone, Copy)]
struct Lanes {
    len: usize,
    intervals: bool,
}

impl Lanes {
    /// Apply a one-operand op to slot `slot` in place.
    fn unary(
        self,
        slot: &mut Slot,
        value: impl Fn(f64) -> f64,
        image: impl Fn(Interval) -> Interval,
    ) {
        let len = self.len;
        for v in &mut slot.v[..len] {
            *v = value(*v);
        }
        if self.intervals {
            for (lo, hi) in slot.lo[..len].iter_mut().zip(&mut slot.hi[..len]) {
                let r = image(Interval { lo: *lo, hi: *hi });
                *lo = r.lo;
                *hi = r.hi;
            }
        }
    }

    /// Combine the slot below `top` (the left operand) with `top` into
    /// the lower one; returns the new stack height, `top`.
    fn binary(
        self,
        stack: &mut [Slot],
        top: usize,
        value: impl Fn(f64, f64) -> f64,
        image: impl Fn(Interval, Interval) -> Interval,
    ) -> usize {
        let len = self.len;
        let (head, tail) = stack.split_at_mut(top);
        let (a, b) = (&mut head[top - 1], &tail[0]);
        for (x, &y) in a.v[..len].iter_mut().zip(&b.v[..len]) {
            *x = value(*x, y);
        }
        if self.intervals {
            let lhs = a.lo[..len].iter_mut().zip(&mut a.hi[..len]);
            let rhs = b.lo[..len].iter().zip(&b.hi[..len]);
            for ((lo, hi), (&rlo, &rhi)) in lhs.zip(rhs) {
                let r = image(Interval { lo: *lo, hi: *hi }, Interval { lo: rlo, hi: rhi });
                *lo = r.lo;
                *hi = r.hi;
            }
        }
        top
    }
}

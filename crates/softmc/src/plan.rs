//! Compiled program plans: loop-coalesced macro-ops with pre-resolved shape.
//!
//! Interpreting a [`Program`] costs one dispatch plus one timing calculation
//! per DDR4 instruction — for a whole-row initialization that is 1026
//! heap-allocated [`Op`]s walked word by word. A [`CompiledPlan`] lowers the
//! program once into a handful of *macro-ops*: a whole-row write becomes one
//! [`PlanOp::InitRow`], a whole-row read one [`PlanOp::ReadRow`], and a pure
//! hammer loop one [`PlanOp::Hammer`], each executed by the engine with
//! closed-form slot timing and the device's bulk row operations. Shapes the
//! lowerer does not recognize fall back to per-instruction [`PlanOp::Inst`]
//! elements executed through the exact interpreted path, so a compiled plan
//! is *observably equivalent* to interpreting the program it was compiled
//! from: identical read data, identical device clock, identical command mix,
//! identical failure points.
//!
//! The session operations of [`crate::host::SoftMc`] build no plan: each
//! calls the engine step its macro-op runs ([`PlanOp::InitRow`],
//! [`PlanOp::ReadRow`], [`PlanOp::Hammer`], or a `WAIT` through
//! [`PlanOp::Inst`]), so the measurement loops of Algs. 1–3 lower nothing.

use crate::inst::Instruction;
use crate::program::{Op, Program};

/// One lowered plan element.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// ACT + `columns` same-word writes on columns `0..columns` + PRE.
    InitRow {
        /// Target bank.
        bank: u32,
        /// Target row (logical address).
        row: u32,
        /// Number of sequential columns written.
        columns: u32,
        /// The word written to every column.
        word: u64,
    },
    /// ACT + one write per data word on columns `0..data.len()` + PRE.
    WriteRun {
        /// Target bank.
        bank: u32,
        /// Target row (logical address).
        row: u32,
        /// Per-column data, column-major from 0.
        data: Vec<u64>,
    },
    /// ACT + `columns` sequential reads on columns `0..columns` + PRE.
    ReadRow {
        /// Target bank.
        bank: u32,
        /// Target row (logical address).
        row: u32,
        /// Number of sequential columns read.
        columns: u32,
    },
    /// A coalesced hammer loop: `count` passes over (bank, row) ACT–PRE
    /// pairs. Identical to the interpreter's coalesced execution.
    Hammer {
        /// Loop iteration count.
        count: u64,
        /// The (bank, row) of each ACT–PRE pair in body order.
        pairs: Vec<(u32, u32)>,
    },
    /// A single instruction, executed through the per-instruction path.
    Inst(Instruction),
    /// A counted loop over a lowered body (shapes the hammer coalescer
    /// rejects run genuinely per iteration, exactly as interpreted).
    Loop {
        /// Iteration count.
        count: u64,
        /// Lowered loop body.
        body: Vec<PlanOp>,
    },
}

/// A lowered, execution-ready program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledPlan {
    /// Lowered ops in execution order.
    pub(crate) ops: Vec<PlanOp>,
}

impl CompiledPlan {
    /// Lowers a program into macro-ops. Pure: no device or geometry
    /// knowledge is needed; shapes that turn out invalid at execution time
    /// (e.g. more columns than the geometry has) are executed through the
    /// per-instruction fallback with interpreted semantics.
    pub fn compile(program: &Program) -> Self {
        CompiledPlan {
            ops: lower(&program.ops),
        }
    }

    /// The lowered ops (for inspection in tests).
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }
}

/// Recognizes a loop body consisting purely of (ACT row, PRE) pairs on one
/// bank — the hammer shape that can be coalesced. Shared with the
/// interpreter so both paths coalesce exactly the same programs.
pub(crate) fn hammer_pairs(body: &[Op]) -> Option<Vec<(u32, u32)>> {
    if body.is_empty() || !body.len().is_multiple_of(2) {
        return None;
    }
    let mut pairs = Vec::with_capacity(body.len() / 2);
    for chunk in body.chunks(2) {
        match (&chunk[0], &chunk[1]) {
            (
                Op::Inst(Instruction::Act { bank: ab, row }),
                Op::Inst(Instruction::Pre { bank: pb }),
            ) if ab == pb => pairs.push((*ab, *row)),
            _ => return None,
        }
    }
    Some(pairs)
}

/// Lowers a flat op slice.
fn lower(ops: &[Op]) -> Vec<PlanOp> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            Op::Loop { count, body } => {
                if let Some(pairs) = hammer_pairs(body) {
                    out.push(PlanOp::Hammer {
                        count: *count,
                        pairs,
                    });
                } else {
                    out.push(PlanOp::Loop {
                        count: *count,
                        body: lower(body),
                    });
                }
                i += 1;
            }
            Op::Inst(Instruction::Act { bank, row }) => {
                if let Some((op, consumed)) = lower_burst(*bank, *row, &ops[i..]) {
                    out.push(op);
                    i += consumed;
                } else {
                    out.push(PlanOp::Inst(Instruction::Act {
                        bank: *bank,
                        row: *row,
                    }));
                    i += 1;
                }
            }
            Op::Inst(inst) => {
                out.push(PlanOp::Inst(*inst));
                i += 1;
            }
        }
    }
    out
}

/// Tries to recognize `ACT; (WR | RD) on sequential columns 0..n; PRE` on
/// one bank starting at `ops[0]` (the ACT). Returns the macro-op and the
/// number of program ops it covers. Requires `n ≥ 1`; mixed or
/// out-of-sequence accesses are rejected (the caller falls back to
/// per-instruction lowering).
fn lower_burst(bank: u32, row: u32, ops: &[Op]) -> Option<(PlanOp, usize)> {
    enum Kind {
        Writes(Vec<u64>),
        Reads(u32),
    }
    let mut kind: Option<Kind> = None;
    let mut j = 1;
    loop {
        match ops.get(j)? {
            Op::Inst(Instruction::Wr {
                bank: wb,
                column,
                data,
            }) if *wb == bank => match &mut kind {
                None if *column == 0 => kind = Some(Kind::Writes(vec![*data])),
                Some(Kind::Writes(words)) if *column as usize == words.len() => {
                    words.push(*data);
                }
                _ => return None,
            },
            Op::Inst(Instruction::Rd { bank: rb, column }) if *rb == bank => match &mut kind {
                None if *column == 0 => kind = Some(Kind::Reads(1)),
                Some(Kind::Reads(n)) if *column == *n => *n += 1,
                _ => return None,
            },
            Op::Inst(Instruction::Pre { bank: pb }) if *pb == bank => {
                let op = match kind? {
                    Kind::Writes(words) => {
                        if let Some(&first) = words.first() {
                            if words.iter().all(|&w| w == first) {
                                PlanOp::InitRow {
                                    bank,
                                    row,
                                    columns: words.len() as u32,
                                    word: first,
                                }
                            } else {
                                PlanOp::WriteRun {
                                    bank,
                                    row,
                                    data: words,
                                }
                            }
                        } else {
                            return None;
                        }
                    }
                    Kind::Reads(columns) => PlanOp::ReadRow { bank, row, columns },
                };
                return Some((op, j + 1));
            }
            _ => return None,
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_row_lowers_to_one_macro_op() {
        let p = Program::init_row(1, 7, 512, 0xAA);
        let plan = CompiledPlan::compile(&p);
        assert_eq!(
            plan.ops(),
            &[PlanOp::InitRow {
                bank: 1,
                row: 7,
                columns: 512,
                word: 0xAA
            }]
        );
    }

    #[test]
    fn read_row_lowers_to_one_macro_op() {
        let p = Program::read_row(0, 3, 1024);
        let plan = CompiledPlan::compile(&p);
        assert_eq!(
            plan.ops(),
            &[PlanOp::ReadRow {
                bank: 0,
                row: 3,
                columns: 1024
            }]
        );
    }

    #[test]
    fn hammer_loop_lowers_to_hammer_op() {
        let p = Program::hammer_double_sided(0, 10, 12, 5000);
        let plan = CompiledPlan::compile(&p);
        assert_eq!(
            plan.ops(),
            &[PlanOp::Hammer {
                count: 5000,
                pairs: vec![(0, 10), (0, 12)]
            }]
        );
    }

    #[test]
    fn non_uniform_init_becomes_write_run() {
        let mut p = Program::new();
        p.push(Instruction::Act { bank: 0, row: 2 });
        p.push(Instruction::Wr {
            bank: 0,
            column: 0,
            data: 1,
        });
        p.push(Instruction::Wr {
            bank: 0,
            column: 1,
            data: 2,
        });
        p.push(Instruction::Pre { bank: 0 });
        let plan = CompiledPlan::compile(&p);
        assert_eq!(
            plan.ops(),
            &[PlanOp::WriteRun {
                bank: 0,
                row: 2,
                data: vec![1, 2]
            }]
        );
    }

    #[test]
    fn out_of_sequence_columns_fall_back_to_instructions() {
        let mut p = Program::new();
        p.push(Instruction::Act { bank: 0, row: 2 });
        p.push(Instruction::Rd { bank: 0, column: 1 }); // not column 0
        p.push(Instruction::Pre { bank: 0 });
        let plan = CompiledPlan::compile(&p);
        assert_eq!(plan.ops().len(), 3);
        assert!(plan.ops().iter().all(|op| matches!(op, PlanOp::Inst(_))));
    }

    #[test]
    fn bare_act_pre_is_not_a_burst() {
        let mut p = Program::new();
        p.push(Instruction::Act { bank: 0, row: 2 });
        p.push(Instruction::Pre { bank: 0 });
        let plan = CompiledPlan::compile(&p);
        assert_eq!(plan.ops().len(), 2);
    }

    #[test]
    fn odd_loop_body_is_not_coalesced() {
        let mut p = Program::new();
        p.push_loop(
            10,
            vec![
                Op::Inst(Instruction::Act { bank: 0, row: 1 }),
                Op::Inst(Instruction::Pre { bank: 0 }),
                Op::Inst(Instruction::Wait { ns: 0.0 }),
            ],
        );
        let plan = CompiledPlan::compile(&p);
        match &plan.ops()[0] {
            PlanOp::Loop { count, body } => {
                assert_eq!(*count, 10);
                assert_eq!(body.len(), 3);
            }
            other => panic!("expected uncoalesced loop, got {other:?}"),
        }
    }
}

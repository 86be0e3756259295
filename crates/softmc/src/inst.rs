//! DDR4 instruction set for test programs.

use serde::{Deserialize, Serialize};

/// One DDR4 command as issued by the test engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// Activate `row` in `bank`.
    Act {
        /// Target bank.
        bank: u32,
        /// Target row (logical address).
        row: u32,
    },
    /// Precharge `bank`.
    Pre {
        /// Target bank.
        bank: u32,
    },
    /// Read the 64-bit word at `column` of the open row in `bank`.
    Rd {
        /// Target bank.
        bank: u32,
        /// Target column.
        column: u32,
    },
    /// Write `data` to `column` of the open row in `bank`.
    Wr {
        /// Target bank.
        bank: u32,
        /// Target column.
        column: u32,
        /// 64-bit data word.
        data: u64,
    },
    /// Refresh command (never issued during the paper's tests — that is how
    /// TRR is disabled).
    Ref,
    /// Idle for the given number of nanoseconds.
    Wait {
        /// Idle duration (ns).
        ns: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trip() {
        let i = Instruction::Wr {
            bank: 1,
            column: 7,
            data: 0xDEAD,
        };
        let json = serde_json::to_string(&i).unwrap();
        let back: Instruction = serde_json::from_str(&json).unwrap();
        assert_eq!(i, back);
    }
}

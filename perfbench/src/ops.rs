//! The op log: the paper's Bank traffic (§5.3, Fig. 8) as a pure function
//! of a seed. The program under test only ever sees the generated ops.

/// Accounts in the bank.
pub const ACCOUNTS: usize = 1_000;
/// Opening balance of every account.
pub const INITIAL_BALANCE: i64 = 1_000;
/// The invariant every scan must observe: transfers only move money.
pub const EXPECTED_TOTAL: i64 = ACCOUNTS as i64 * INITIAL_BALANCE;
/// (from, to) pairs per transfer.
pub const PAIRS: usize = 10;
/// The mix is exact within every block of this many ops, so the share of
/// scans does not drift with the seed.
pub const BLOCK: usize = 20;

/// One Bank operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Moves `amount` units across each (from, to) account pair.
    Transfer {
        pairs: [(u16, u16); PAIRS],
        amount: i64,
    },
    /// `getTotalAmount`: reads every account.
    Scan,
}

impl Op {
    pub fn is_scan(&self) -> bool {
        matches!(self, Op::Scan)
    }
}

/// splitmix64: a small, seedable generator whose whole state is one word.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The log of client `client` under `seed`: `len` ops of which
/// `scan_percent` are scans, placed at random positions inside every
/// block of 20 ops.
pub fn generate(seed: u64, client: usize, len: usize, scan_percent: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let scans_per_block = scan_percent * BLOCK / 100;
    let mut log = Vec::with_capacity(len);
    let mut block = [false; BLOCK];
    while log.len() < len {
        // Partial Fisher-Yates: mark `scans_per_block` distinct slots.
        let mut slots: [usize; BLOCK] = std::array::from_fn(|i| i);
        block.fill(false);
        for i in 0..scans_per_block {
            let j = i + rng.below(BLOCK - i);
            slots.swap(i, j);
            block[slots[i]] = true;
        }
        for &scan in block.iter().take(len - log.len()) {
            log.push(if scan {
                Op::Scan
            } else {
                Op::Transfer {
                    pairs: std::array::from_fn(|_| {
                        let from = rng.below(ACCOUNTS);
                        let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                        (from as u16, to as u16)
                    }),
                    amount: 1 + rng.below(5) as i64,
                }
            });
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_exact_per_block_and_pairs_are_distinct() {
        let log = generate(7, 0, 400, 10);
        assert_eq!(log.len(), 400);
        for block in log.chunks(BLOCK) {
            assert_eq!(block.iter().filter(|op| op.is_scan()).count(), 2);
        }
        for op in &log {
            if let Op::Transfer { pairs, amount } = op {
                assert!((1..=5).contains(amount));
                assert!(pairs
                    .iter()
                    .all(|(f, t)| f != t && (*t as usize) < ACCOUNTS));
            }
        }
    }

    #[test]
    fn seed_and_client_select_the_log() {
        assert_eq!(generate(1, 0, 64, 50), generate(1, 0, 64, 50));
        assert_ne!(generate(1, 0, 64, 50), generate(2, 0, 64, 50));
        assert_ne!(generate(1, 0, 64, 50), generate(1, 1, 64, 50));
    }
}

//! The seeded generator behind every fixture: `serve_bench`'s LCG, with the
//! seed and a stream number mixed into its starting state.

pub struct Lcg(u64);

impl Lcg {
    /// Independent sequences for the same `seed` come from different
    /// `stream`s; stream 0 with `serve_bench`'s constants.
    pub fn new(seed: u64, stream: u64) -> Lcg {
        Lcg(0x8eed_5e12
            ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    pub fn draw(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.draw() as usize % n
    }
}

//! The requests the serve workloads send, generated from the seed. The
//! program under test only ever sees the generated frames.

use amgen::faults::hostile::{self, Refusal};
use amgen::serve::proto::write_frame;
use amgen::serve::Json;

/// SplitMix64: small, seedable and the same on every platform.
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

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

/// What a correct server answers to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `ok:true` with layouts.
    Ok,
    /// Refused with this wire code and zero fuel spent.
    Refused(&'static str),
}

/// One request of the figure workload.
pub struct Work {
    pub id: String,
    pub frame: Vec<u8>,
    pub expect: Expect,
}

/// Frames a request document as the wire protocol does.
pub fn frame(json: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(json.len() + 8);
    write_frame(&mut out, json.as_bytes()).expect("writing to a Vec cannot fail");
    out
}

/// The six figure requests of the serve load test and the hostile
/// corpus's four bombs, each with the answer a correct server gives.
pub fn figures() -> Vec<Work> {
    let mut works: Vec<Work> = [
        (
            "fig2-poly",
            r#"{"id":"fig2-poly","source":"row = ContactRow(layer = \"poly\", W = 10)"}"#,
        ),
        (
            "fig2-pdiff",
            r#"{"id":"fig2-pdiff","source":"row = ContactRow(layer = lyr, W = w)","params":{"lyr":"pdiff","w":14}}"#,
        ),
        ("fig7", r#"{"id":"fig7","source":"pair = DiffPair(W = 10, L = 2)"}"#),
        (
            "interdigit",
            r#"{"id":"interdigit","source":"t = Interdigit(n = n, W = 8, L = 2)","params":{"n":4}}"#,
        ),
        ("stacked", r#"{"id":"stacked","source":"s = Stacked(n = 3, W = 8, L = 2)"}"#),
        ("variant", r#"{"id":"variant","source":"r = FlexRow(layer = \"poly\", S = 20)"}"#),
    ]
    .into_iter()
    .map(|(id, json)| Work {
        id: id.to_string(),
        frame: frame(json),
        expect: Expect::Ok,
    })
    .collect();
    for bomb in hostile::ALL {
        let json = format!(
            r#"{{"id":{},"source":{}}}"#,
            Json::from(bomb.name),
            Json::from(bomb.source)
        );
        works.push(Work {
            id: bomb.name.to_string(),
            frame: frame(&json),
            expect: Expect::Refused(match bomb.refusal {
                Refusal::Lint => "LINT_REJECTED",
                Refusal::Admission => "ADMISSION_REFUSED",
                Refusal::Dynamic => "BUDGET_EXHAUSTED",
            }),
        });
    }
    works
}

/// The seeded parameter sweep one connection sends.
///
/// Every block of six consecutive requests holds one request of each
/// generator in a seeded order, with seeded parameters. The parameter
/// ranges put Interdigit and CentroidE responses above the server's
/// 8 KiB write buffer and the other four below it, so exactly a third
/// of every block takes the two-write path whatever the seed; the
/// share of stalled responses then does not vary between seeds.
pub struct Sweep {
    rng: Rng,
    conn: usize,
    tenant: String,
    issued: u64,
    block: Vec<usize>,
}

impl Sweep {
    pub fn new(seed: u64, conn: usize, tenant: &str) -> Sweep {
        Sweep {
            rng: Rng::new(seed ^ (0x5157_4545_5000 + conn as u64)),
            conn,
            tenant: tenant.to_string(),
            issued: 0,
            block: Vec::new(),
        }
    }

    /// The next request document.
    pub fn next_json(&mut self) -> String {
        if self.block.is_empty() {
            self.block = (0..6).collect();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("block refilled above");
        let r = &mut self.rng;
        let (source, params) = match kind {
            0 => (
                "x = ContactRow(layer = lyr, W = w)",
                format!(
                    r#""lyr":"{}","w":{}"#,
                    ["poly", "pdiff"][r.range(0, 1) as usize],
                    r.range(4, 120)
                ),
            ),
            1 => (
                "x = FlexRow(layer = lyr, S = s)",
                format!(
                    r#""lyr":"{}","s":{}"#,
                    ["poly", "pdiff"][r.range(0, 1) as usize],
                    r.range(4, 150)
                ),
            ),
            2 => (
                "x = Stacked(n = n, W = w, L = l)",
                format!(
                    r#""l":{},"n":{},"w":{}"#,
                    r.range(1, 3),
                    r.range(2, 40),
                    r.range(4, 10)
                ),
            ),
            3 => (
                "x = DiffPair(W = w, L = l)",
                format!(r#""l":{},"w":{}"#, r.range(1, 4), r.range(4, 60)),
            ),
            4 => (
                "x = Interdigit(n = n, W = w, L = l)",
                format!(
                    r#""l":{},"n":{},"w":{}"#,
                    r.range(1, 3),
                    r.range(16, 28),
                    r.range(8, 16)
                ),
            ),
            _ => (
                "x = CentroidE(side = a, center = b, W = w, L = l)",
                format!(
                    r#""a":{},"b":{},"l":{},"w":{}"#,
                    r.range(2, 5),
                    r.range(2, 5),
                    r.range(1, 2),
                    r.range(14, 22)
                ),
            ),
        };
        self.issued += 1;
        format!(
            r#"{{"id":"s{}-{}","tenant":"{}","source":"{}","params":{{{}}}}}"#,
            self.conn, self.issued, self.tenant, source, params
        )
    }
}

/// The deterministic part of a response payload: everything before the
/// `stats` section. The server writes object keys in sorted order, so
/// `stats` is the last key of every response that carries it.
pub fn deterministic(payload: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b",\"stats\":";
    payload
        .windows(KEY.len())
        .rposition(|w| w == KEY)
        .map(|cut| &payload[..cut])
}

//! The benchmark harness: workload builders and the one command line,
//! JSON artifact, baseline and gate machinery every binary shares.
//!
//! `report` alone runs E1–E10: it prints the paper-shaped
//! series (counts, bytes, precision/recall, simulated makespans) beside
//! median timings. e11–e16 each measure one post-paper mechanism, and
//! each parses its flags with [`Flags`], writes its `--json` artifact as
//! a [`Json`] document, reads a committed `--baseline` back with
//! [`read_baseline`], and checks its bounds through [`Gates`].

use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_registry::{ContainerRegistry, ServiceEntry, UddiRegistry};
use portalws_soap::{Envelope, HeaderEntry, SoapValue};
use portalws_wire::{Pool, PoolConfig, PooledTransport, RetryPolicy, ServerArm, Transport};
use portalws_xml::{ComplexType, Element, ElementDecl, Schema, TypeDef};

/// Median wall time of `f` over `runs` runs: the middle sample, the upper
/// one of an even count.
pub fn median(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The `p` quantile (0 to 1) of samples sorted ascending: the sample at
/// index `round((n - 1) * p)`, or 0.0 when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let index = (sorted.len().saturating_sub(1) as f64 * p).round() as usize;
    sorted.get(index).copied().unwrap_or(0.0)
}

/// The flags a bench binary was given. Each binary names the flags it
/// takes: switches such as `--quick`, and flags with a value such as
/// `--json PATH`.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Parse this process's arguments, or print why they are wrong with
    /// the usage line and exit 2.
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Flags {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Flags::parse(args, switches, valued).unwrap_or_else(|e| {
            let name = program.rsplit('/').next().unwrap_or_default();
            let usage: String = switches
                .iter()
                .map(|s| format!(" [{s}]"))
                .chain(valued.iter().map(|v| format!(" [{v} VALUE]")))
                .collect();
            eprintln!("{name}: {e}\nusage: {name}{usage}");
            std::process::exit(2)
        })
    }

    /// Parse `args`. An unknown flag, a flag given twice, or a valued
    /// flag without its value is an error.
    fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Flags, String> {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = if switches.contains(&flag.as_str()) {
                None
            } else if valued.contains(&flag.as_str()) {
                match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{flag} needs a value")),
                }
            } else {
                return Err(format!("unknown argument {flag:?}"));
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            given.push((flag, value));
        }
        Ok(Flags(given))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value given with `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// A JSON document: what `--json` writes and a baseline reads back. A
/// number keeps the text it is written as, so a document read back from
/// its own output equals the one written.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`: what a number that is not finite is written as.
    Null,
    /// A number, as written.
    Num(String),
    /// A string.
    Str(String),
    /// An array; an artifact's rows.
    Arr(Vec<Json>),
    /// An object, its keys in the order written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// `value` with `decimals` digits after the point; `null` if it is
    /// not finite, which JSON cannot spell.
    pub fn num(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// This object with `key` set to `value` after its other keys.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::with({key:?}) on a value that is not an object");
        };
        fields.push((key.to_owned(), value.into()));
        self
    }

    /// The value at `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number's value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The document as text: one key of each object per line, and each
    /// element of an array on a line of its own.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Write the document to `path` and say so.
    pub fn write_to(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }

    /// `depth` is the nesting of a value laid out over lines; `None`
    /// writes it on one line, as an array's elements are.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (open, close, len) = match self {
            Json::Null => return out.push_str("null"),
            Json::Num(text) => return out.push_str(text),
            Json::Str(s) => return write_json_str(out, s),
            Json::Arr(items) => ('[', ']', items.len()),
            Json::Obj(fields) => ('{', '}', fields.len()),
        };
        out.push(open);
        for i in 0..len {
            let comma = if i > 0 { "," } else { "" };
            match depth {
                Some(d) => out.push_str(&format!("{comma}\n{}", "  ".repeat(d + 1))),
                None => out.push_str(if i > 0 { ", " } else { "" }),
            }
            match self {
                Json::Arr(items) => items[i].write(out, None),
                Json::Obj(fields) => {
                    write_json_str(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, depth.map(|d| d + 1));
                }
                _ => unreachable!("only containers get here"),
            }
        }
        if let (Some(d), true) = (depth, len > 0) {
            out.push_str(&format!("\n{}", "  ".repeat(d)));
        }
        out.push(close);
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n.to_string())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl From<Vec<(String, Json)>> for Json {
    fn from(fields: Vec<(String, Json)>) -> Json {
        Json::Obj(fields)
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl FromStr for Json {
    type Err = String;

    /// Read a JSON document: objects, arrays, strings, numbers and
    /// `null`, which is all an artifact holds.
    fn from_str(text: &str) -> Result<Json, String> {
        let mut reader = Reader { text, at: 0 };
        let doc = reader.value()?;
        reader.skip_space();
        let at = reader.at;
        (at == text.len())
            .then_some(doc)
            .ok_or(format!("trailing text at byte {at}"))
    }
}

struct Reader<'t> {
    text: &'t str,
    at: usize,
}

impl Reader<'_> {
    fn skip_space(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start().len();
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        let at = self.at;
        self.eat(byte)
            .then_some(())
            .ok_or(format!("expected {:?} at byte {at}", byte as char))
    }

    /// Whether the next byte, after space, is `byte`; consumes it if so.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let found = self.peek() == Some(byte);
        self.at += usize::from(found);
        found
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.peek() {
            Some(b'{') => self.items(b'}', |r| {
                let key = r.string()?;
                r.expect(b':')?;
                Ok((key, r.value()?))
            }),
            Some(b'[') => self.items(b']', Reader::value),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') if self.text[self.at..].starts_with("null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            _ => {
                let rest = &self.text[self.at..];
                let len = rest
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(rest.len());
                let text = &rest[..len];
                if text.is_empty() || text.parse::<f64>().is_err() {
                    return Err(format!("expected a value at byte {}", self.at));
                }
                self.at += len;
                Ok(Json::Num(text.to_owned()))
            }
        }
    }

    /// The comma-separated items of an array or object, up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Json, String>
    where
        Json: From<Vec<T>>,
    {
        self.at += 1;
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(Json::from(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.text[self.at..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        out.push(code.ok_or_else(|| format!("bad escape \\u{hex}"))?);
                    }
                    Some(e @ ('"' | '\\' | '/')) => out.push(e),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

/// Read the baseline at `path`: the `--json` artifact of an earlier run,
/// which holds measurements only. Exits 2 if it cannot be read.
pub fn read_baseline(path: &str) -> Json {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| text.parse())
        .unwrap_or_else(|e| {
            eprintln!("baseline {path}: {e}");
            std::process::exit(2)
        })
}

/// A run's gates. Each bound is a constant beside its check; a failed
/// check becomes a `FAIL:` line when the list finishes.
#[derive(Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Record one check; `failure` says what broke when `ok` is false.
    pub fn check(&mut self, ok: bool, failure: String) {
        if !ok {
            self.failures.push(failure);
        }
    }

    /// Check `current` against `factor` times the baseline's `key`, and
    /// print the two.
    pub fn within(&mut self, baseline: &Json, key: &str, current: f64, factor: f64) {
        let Some(base) = baseline.get(key).and_then(Json::as_f64) else {
            return self.check(false, format!("the baseline holds no number {key:?}"));
        };
        println!("baseline {key}: {base:.3}, current: {current:.3} (gate {factor}x)");
        self.check(
            current <= factor * base,
            format!("{key} regressed >{factor}x ({current:.3} vs baseline {base:.3})"),
        );
    }

    /// Print each failure as a `FAIL:` line and exit 1; with none, print
    /// `passed` and return.
    pub fn finish(self, passed: &str) {
        if self.failures.is_empty() {
            println!("\n{passed}");
            return;
        }
        for failure in &self.failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1)
    }
}

/// The name a report and its JSON artifact give a server arm.
pub fn arm_name(arm: ServerArm) -> &'static str {
    match arm {
        ServerArm::Blocking => "blocking",
        ServerArm::Reactor => "reactor",
    }
}

/// The 2002 transport regime to `addr`: one TCP connection per call, from
/// a pool that parks none, and no retries.
pub fn per_call_transport(addr: impl ToString) -> Arc<dyn Transport> {
    let pool = Pool::new(PoolConfig {
        max_idle: 0,
        ..PoolConfig::default()
    });
    Arc::new(PooledTransport::with_pool(addr, Arc::new(pool)).with_retry(RetryPolicy::none()))
}

/// A representative SOAP request envelope for the E11 substrate
/// experiment: a multi-job submission with a SAML-style assertion header —
/// the shape every portal call pays to parse and serialize.
pub fn representative_envelope() -> Envelope {
    let jobs = SoapValue::Xml(jobs_request(4, 30, 2));
    let notify = SoapValue::str("alice@GCE.ORG");
    let priority = SoapValue::Int(5);
    Envelope::request_named(
        "JobSubmission",
        "submitXml",
        [
            ("jobs", &jobs),
            ("notify", &notify),
            ("priority", &priority),
        ],
    )
    .with_header(HeaderEntry::from_element(
        &Element::new("saml:Assertion")
            .with_attr("xmlns:saml", "urn:oasis:saml")
            .with_text_child("subject", "kerberos:alice@GCE.ORG")
            .with_text_child("issuer", "auth.gce.org")
            .with_text_child("signature", "9f8e7d6c5b4a39281706f5e4d3c2b1a0"),
    ))
}

/// Deterministic synthetic schema for E3: `leaves` simple elements spread
/// over complex groups of `group_size`, nested `depth` levels.
pub fn synthetic_schema(leaves: usize, group_size: usize, depth: usize) -> Schema {
    fn group(level: usize, leaves: usize, group_size: usize) -> ComplexType {
        let mut ct = ComplexType::default();
        if level == 0 {
            for i in 0..leaves {
                ct = ct.with(match i % 3 {
                    0 => ElementDecl::string(format!("field{i}")),
                    1 => ElementDecl::int(format!("field{i}")),
                    _ => ElementDecl::enumerated(format!("field{i}"), ["a", "b", "c"]),
                });
            }
            return ct;
        }
        let per_group = leaves.div_ceil(group_size).max(1);
        for g in 0..group_size.min(leaves.max(1)) {
            ct = ct.with(ElementDecl::new(
                format!("group{level}n{g}"),
                TypeDef::Complex(group(level - 1, per_group, group_size)),
            ));
        }
        ct
    }
    Schema::new("urn:bench").with_element(ElementDecl::new(
        "root",
        TypeDef::Complex(group(depth, leaves, group_size)),
    ))
}

/// Complete form data for a [`synthetic_schema`] instance.
pub fn synthetic_form(schema: &Schema) -> Vec<(String, String)> {
    use portalws_wizard::{ConstituentKind, Som};
    Som::new(schema)
        .walk("root")
        .expect("root exists")
        .into_iter()
        .filter_map(|c| match c.kind {
            ConstituentKind::Complex => None,
            ConstituentKind::EnumeratedSimple => Some((c.path, "b".to_owned())),
            _ => {
                let st = c.simple.expect("simple kinds carry a type");
                Some((c.path, st.sample()))
            }
        })
        .collect()
}

/// E7 population: `n` services, 1 in 4 genuinely supports LSF; half the
/// PBS services mention LSF in misleading prose. Returns
/// `(uddi, container, truly_lsf)`.
pub fn discovery_population(n: usize) -> (Arc<UddiRegistry>, Arc<ContainerRegistry>, usize) {
    let uddi = Arc::new(UddiRegistry::new());
    let container = Arc::new(ContainerRegistry::new());
    let biz = uddi
        .publish_business("TestBed", "synthetic population")
        .expect("fresh registry");
    let mut truly_lsf = 0;
    for i in 0..n {
        let supports_lsf = i % 4 == 0;
        if supports_lsf {
            truly_lsf += 1;
        }
        let scheduler = if supports_lsf { "LSF" } else { "PBS" };
        let description = if supports_lsf {
            format!("Service {i}. Supports LSF batch submission.")
        } else if i % 2 == 1 {
            format!("Service {i}. Supports PBS. Migrated away from LSF in 2001.")
        } else {
            format!("Service {i}. Supports PBS batch submission.")
        };
        uddi.publish_service(&biz, format!("scriptgen-{i}"), description, vec![])
            .expect("fresh registry");
        container
            .register(
                "/gce/scriptgen",
                ServiceEntry {
                    name: format!("scriptgen-{i}"),
                    access_point: format!("http://svc-{i}/soap/BatchScriptGen"),
                    wsdl_url: String::new(),
                    metadata: Element::new("serviceMetadata").with_child(
                        Element::new("schedulers")
                            .with_child(Element::new("scheduler").with_text(scheduler)),
                    ),
                },
            )
            .expect("fresh registry");
    }
    (uddi, container, truly_lsf)
}

/// An E9 multi-job request document: `n` jobs of `sleep_secs` each.
pub fn jobs_request(n: usize, sleep_secs: u64, cpus: u32) -> Element {
    let mut jobs = Element::new("jobs");
    for i in 0..n {
        jobs.push_child(
            Element::new("job")
                .with_text_child("host", "tg-login")
                .with_text_child("scheduler", "PBS")
                .with_text_child("queue", "batch")
                .with_text_child("name", format!("j{i}"))
                .with_text_child("cpus", cpus.to_string())
                .with_text_child("wallMinutes", "60")
                .with_text_child("command", format!("sleep {sleep_secs}")),
        );
    }
    jobs
}

/// A payload of `len` bytes with an `escape_fraction` of characters that
/// require XML escaping — the E5 sweep axis.
pub fn payload(len: usize, escape_fraction: f64) -> String {
    let every = if escape_fraction <= 0.0 {
        usize::MAX
    } else {
        (1.0 / escape_fraction).round().max(1.0) as usize
    };
    let mut s = String::with_capacity(len);
    for i in 0..len {
        s.push(if every != usize::MAX && i % every == 0 {
            '<'
        } else {
            // Deterministic printable filler.
            (b'a' + (i % 26) as u8) as char
        });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_reads_back_key_by_key() {
        let row = |i: u64| Json::obj().with("arm", "reactor").with("n", i);
        let doc = Json::obj()
            .with("negative", Json::num(-1.5, 2))
            .with("fraction", Json::num(0.0625, 4))
            .with("huge", Json::num(6.02e23, 1))
            .with("tiny", Json::num(1.25e-7, 9))
            .with("count", 1_294usize)
            .with("not_finite", Json::num(f64::NAN, 3))
            .with("kernel", "a \"quoted\" \\ name\n")
            .with(
                "nested",
                Json::obj().with("delay", 3u64).with("close", 0u64),
            )
            .with("none", Json::Arr(Vec::new()))
            .with("one", vec![row(1)])
            .with("three", vec![row(1), row(2), row(3)]);
        let read: Json = doc.render().parse().unwrap();
        assert_eq!(read, doc);
        if let Json::Obj(fields) = &doc {
            fields
                .iter()
                .for_each(|(k, v)| assert_eq!(read.get(k), Some(v), "{k}"));
        }
        assert_eq!(read.get("negative").and_then(Json::as_f64), Some(-1.5));
        assert_eq!(read.get("huge").and_then(Json::as_f64), Some(6.02e23));
        assert_eq!(read.get("tiny").and_then(Json::as_f64), Some(1.25e-7));
        assert_eq!(read.get("not_finite"), Some(&Json::Null));
        // A hand-edited baseline may spell numbers with an exponent.
        let edited: Json = "{\"parse_us\": 1.5e-3, \"rows\": [ ]}".parse().unwrap();
        assert_eq!(edited.get("parse_us").and_then(Json::as_f64), Some(0.0015));
        for bad in [
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} x",
            "[1 2]",
            "{\"a\": \"x}",
        ] {
            assert!(bad.parse::<Json>().is_err(), "{bad}");
        }
    }

    #[test]
    fn percentile_picks_the_rounded_index() {
        // e15's rule: the sample at index round((n - 1) * p).
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        for (p, index) in [(0.0, 0.0), (0.5, 50.0), (0.99, 98.0), (1.0, 99.0)] {
            assert_eq!(percentile(&hundred, p), index, "p = {p}");
            assert_eq!(percentile(&[7.5], p), 7.5, "p = {p}");
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn flags_take_only_what_the_binary_names() {
        fn orders<'a>(flags: &[Vec<&'a str>]) -> Vec<Vec<&'a str>> {
            if flags.is_empty() {
                return vec![vec![]];
            }
            (0..flags.len())
                .flat_map(|i| {
                    let mut rest = flags.to_vec();
                    let first = rest.remove(i);
                    orders(&rest)
                        .into_iter()
                        .map(move |tail| [first.clone(), tail].concat())
                })
                .collect()
        }
        let parse = |args: &[&str], switches, valued| {
            Flags::parse(args.iter().map(|a| a.to_string()), switches, valued)
        };
        let every = [
            "--quick",
            "--assert-no-alloc",
            "--json",
            "--baseline",
            "--seed",
        ];
        // e11, e12, e13, e14, e15, e16 and report, as their `main`s name them.
        let binaries: [(&[&str], &[&str]); 7] = [
            (&["--quick", "--assert-no-alloc"], &["--json", "--baseline"]),
            (&["--quick"], &["--json", "--seed"]),
            (&["--quick"], &["--json"]),
            (&["--quick"], &["--json", "--baseline"]),
            (&["--quick"], &["--json"]),
            (&["--quick"], &["--json", "--baseline"]),
            (&[], &[]),
        ];
        for (switches, valued) in binaries {
            let given: Vec<Vec<&str>> = (switches.iter().map(|s| vec![*s]))
                .chain(valued.iter().map(|v| vec![*v, "7"]))
                .collect();
            for args in orders(&given) {
                let flags = parse(&args, switches, valued).unwrap();
                assert!(switches.iter().all(|s| flags.has(s)), "{args:?}");
                assert!(
                    valued.iter().all(|v| flags.value(v) == Some("7")),
                    "{args:?}"
                );
            }
            let taken = |f: &&str| switches.contains(f) || valued.contains(f);
            let mut bad: Vec<Vec<&str>> = vec![vec!["--baselin", "b.json"], vec!["stray"]];
            bad.extend(every.iter().filter(|f| !taken(f)).map(|f| vec![*f, "7"]));
            bad.extend(valued.iter().map(|v| vec![*v]));
            bad.extend(valued.iter().map(|v| vec![*v, "--quick"]));
            bad.extend(switches.iter().map(|s| vec![*s, *s]));
            for args in bad {
                assert!(parse(&args, switches, valued).is_err(), "{args:?}");
            }
        }
    }

    #[test]
    fn a_baseline_gate_fails_past_its_factor_or_on_a_missing_key() {
        let baseline = Json::obj().with("parse_us", Json::num(7.0, 3));
        let mut gates = Gates::default();
        gates.within(&baseline, "parse_us", 14.0, 2.0);
        assert!(gates.failures.is_empty());
        gates.within(&baseline, "parse_us", 14.1, 2.0);
        gates.within(&baseline, "serialize_us", 1.0, 2.0);
        assert_eq!(gates.failures.len(), 2, "{:?}", gates.failures);
    }

    #[test]
    fn synthetic_schema_forms_round_trip() {
        for (leaves, group, depth) in [(4, 2, 1), (16, 4, 2), (64, 4, 2)] {
            let schema = synthetic_schema(leaves, group, depth);
            let wizard = portalws_wizard::SchemaWizard::new(schema.clone());
            let form = synthetic_form(&schema);
            let instance = wizard
                .instance_from_form("root", &form)
                .unwrap_or_else(|e| panic!("({leaves},{group},{depth}): {e}"));
            schema.validate(&instance).unwrap();
        }
    }

    #[test]
    fn discovery_population_counts() {
        let (uddi, container, truly) = discovery_population(64);
        assert_eq!(truly, 16);
        assert_eq!(uddi.service_count(), 64);
        assert_eq!(container.entry_count(), 64);
        // UDDI finds extra (misleading) hits; container is exact.
        assert!(uddi.find_service("LSF").len() > truly);
        assert_eq!(container.query("schedulers/scheduler", "LSF").len(), truly);
    }

    #[test]
    fn payload_escape_fraction() {
        let p = payload(1000, 0.5);
        let specials = p.bytes().filter(|&b| b == b'<').count();
        assert!((450..=550).contains(&specials), "{specials}");
        assert_eq!(payload(100, 0.0).bytes().filter(|&b| b == b'<').count(), 0);
    }

    #[test]
    fn jobs_request_shape() {
        let r = jobs_request(3, 5, 2);
        assert_eq!(r.find_all("job").count(), 3);
        assert_eq!(r.find("job").unwrap().find_text("command"), Some("sleep 5"));
    }
}

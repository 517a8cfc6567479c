//! Reproducer files: the search's durable output.
//!
//! A winning, shrunk genome is committed as a small text file carrying
//! everything needed to re-run it — the evaluation space, fitness target,
//! evaluation seed, the fitness it achieved and the genome itself. The
//! regression corpus under `results/search/corpus/` is replayed by
//! `cargo test` forever after, so a defender improvement that breaks an
//! old attack shows up as a (welcome) test failure, and a regression that
//! resurrects one shows up as a fitness mismatch.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::fitness::{evaluate, Fitness, FitnessTarget};
use crate::genome::{AdversaryGenome, GenomeSpace};

const HEADER: &str = "triad-search reproducer v1";

/// One committed search winner.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Corpus-unique name (also the file stem).
    pub name: String,
    /// The evaluation scenario the fitness was measured in.
    pub space: GenomeSpace,
    /// The damage metric the search maximized.
    pub target: FitnessTarget,
    /// The seed the genome was evaluated (and is replayed) at.
    pub eval_seed: u64,
    /// The fitness recorded when the reproducer was minted.
    pub fitness: Fitness,
    /// The minimized adversary plan.
    pub genome: AdversaryGenome,
}

impl Reproducer {
    /// Re-runs the genome and returns its fitness now (compare against
    /// [`Reproducer::fitness`] to detect defender or simulator drift).
    pub fn replay(&self) -> Fitness {
        evaluate(&self.space, &self.genome, self.target, self.eval_seed)
    }

    /// Encodes the whole reproducer as its file format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("space {}\n", self.space.encode()));
        out.push_str(&format!("target {}\n", self.target.encode()));
        out.push_str(&format!("eval-seed {}\n", self.eval_seed));
        out.push_str(&format!("fitness {}\n", self.fitness.encode()));
        out.push_str("genome\n");
        let genome = self.genome.encode();
        if !genome.is_empty() {
            out.push_str(&genome);
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Decodes a reproducer file; the genome is validated against its
    /// space, so a corrupt file never reaches the simulator.
    ///
    /// # Errors
    ///
    /// Returns the offending line and what was wrong with it.
    pub fn decode(s: &str) -> Result<Reproducer, String> {
        let mut lines = s.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(format!("missing header {HEADER:?}"));
        }
        let (mut name, mut space, mut target, mut eval_seed, mut fitness) =
            (None, None, None, None, None);
        let mut genome_lines: Option<Vec<&str>> = None;
        let mut ended = false;
        for line in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(body) = &mut genome_lines {
                if trimmed == "end" {
                    ended = true;
                    break;
                }
                body.push(trimmed);
                continue;
            }
            if trimmed == "genome" {
                genome_lines = Some(Vec::new());
                continue;
            }
            let (key, rest) = trimmed
                .split_once(' ')
                .ok_or_else(|| format!("expected '<key> <value>', got {trimmed:?}"))?;
            match key {
                "name" => name = Some(rest.trim().to_string()),
                "space" => space = Some(GenomeSpace::decode(rest)?),
                "target" => target = Some(FitnessTarget::decode(rest)?),
                "eval-seed" => {
                    eval_seed = Some(
                        rest.trim().parse().map_err(|_| format!("unparseable seed {rest:?}"))?,
                    );
                }
                "fitness" => fitness = Some(Fitness::decode(rest)?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if !ended {
            return Err("missing end marker".to_string());
        }
        let space = space.ok_or("missing space")?;
        let genome = AdversaryGenome::decode(&genome_lines.unwrap_or_default().join("\n"))?;
        genome.validate(&space)?;
        let r = Reproducer {
            name: name.ok_or("missing name")?,
            space,
            target: target.ok_or("missing target")?,
            eval_seed: eval_seed.ok_or("missing eval-seed")?,
            fitness: fitness.ok_or("missing fitness")?,
            genome,
        };
        if r.name.is_empty() || !r.name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(format!("invalid reproducer name {:?}", r.name));
        }
        Ok(r)
    }

    /// Writes `<dir>/<name>.scn`, creating `dir` as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.scn", self.name));
        fs::write(&path, self.encode())?;
        Ok(path)
    }

    /// Loads one reproducer file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; format errors become
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Reproducer> {
        let text = fs::read_to_string(path)?;
        Reproducer::decode(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })
    }

    /// Loads every `.scn` file under `dir`, sorted by file name (an
    /// absent directory is an empty corpus, not an error).
    ///
    /// # Errors
    ///
    /// Propagates filesystem and format errors.
    // tt-lint: allow(test-only-pub) — `tests/search_corpus.rs` replays the committed corpus through it
    pub fn load_dir(dir: &Path) -> io::Result<Vec<Reproducer>> {
        let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
            Ok(entries) => entries
                .collect::<io::Result<Vec<_>>>()?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "scn"))
                .collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        paths.sort();
        paths.iter().map(|p| Reproducer::load(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultAction, FaultPlan};
    use sim::SimTime;

    fn sample() -> Reproducer {
        Reproducer {
            name: "drift-n3-b64".to_string(),
            space: GenomeSpace { n: 3, horizon_s: 36, service: true },
            target: FitnessTarget::Drift,
            eval_seed: 0xE23,
            fitness: Fitness { detections: 0, value: 12.5 },
            genome: AdversaryGenome {
                faults: FaultPlan::new().at(SimTime::from_secs(4), FaultAction::TaOutage),
                ..Default::default()
            },
        }
    }

    #[test]
    fn reproducer_codec_round_trips() {
        let r = sample();
        assert_eq!(Reproducer::decode(&r.encode()), Ok(r.clone()));
        let empty = Reproducer { genome: AdversaryGenome::default(), ..r };
        assert_eq!(Reproducer::decode(&empty.encode()), Ok(empty));
    }

    #[test]
    fn reproducer_decode_rejects_corruption() {
        let r = sample();
        assert!(Reproducer::decode(&r.encode().replace("triad-search", "other")).is_err());
        assert!(Reproducer::decode(&r.encode().replace("\nend\n", "\n")).is_err());
        assert!(Reproducer::decode(&r.encode().replace("drift-n3-b64", "bad name!")).is_err());
        // Genome outside its space: victim 9 in a 3-node cluster.
        let oob = r.encode().replace("fault 4000000000 ta-outage", "manip 1 9 offset-jump 5");
        assert!(Reproducer::decode(&oob).is_err());
    }

    #[test]
    fn save_load_dir_round_trips_sorted() {
        let dir = std::env::temp_dir().join(format!("tt-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = Reproducer { name: "bbb".into(), ..sample() };
        let b = Reproducer { name: "aaa".into(), ..sample() };
        a.save(&dir).unwrap();
        b.save(&dir).unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let loaded = Reproducer::load_dir(&dir).unwrap();
        assert_eq!(loaded, vec![b, a]);
        assert!(Reproducer::load_dir(&dir.join("missing")).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_matches_recorded_fitness() {
        let mut r = sample();
        r.fitness = r.replay();
        let decoded = Reproducer::decode(&r.encode()).unwrap();
        assert_eq!(decoded.replay(), r.fitness);
    }
}

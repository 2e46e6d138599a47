//! Setup loads move words in bulk: every algorithm's `load_input(s)` is
//! one `write_range` per contiguous run and every `read_output` one
//! `read_range`. A bulk load must be indistinguishable from the per-word
//! stores it replaces: the same words, the same dirty pages for the next
//! incremental flush, and — while a write observer is installed — one
//! observed store per word with its true previous value.

#![cfg(unix)]

use std::sync::{Arc, Mutex};

use ppm::algs::{MatMul, SampleSort};
use ppm::core::Machine;
use ppm::pm::{Addr, PmConfig, TempMachineFile, Word};

const WORDS: usize = 1 << 16;

fn durable(tag: &str) -> (Machine, TempMachineFile) {
    let file = TempMachineFile::new(tag);
    let m = Machine::create_durable(PmConfig::parallel(1, WORDS), &file).unwrap();
    // Start from a clean bitmap: only the load's pages are dirty after it.
    m.mem()
        .dirty_tracker()
        .expect("a durable machine tracks dirt")
        .drain();
    (m, file)
}

/// Every word of the machine, and the dirty page runs a drain returns.
fn image(m: &Machine) -> (Vec<Word>, Vec<(usize, usize)>) {
    let words = m.mem().to_vec(0, m.mem().len());
    (words, m.mem().dirty_tracker().unwrap().drain())
}

#[test]
fn a_bulk_load_leaves_the_words_and_dirty_pages_of_per_word_stores() {
    let n = 3000;
    let keys: Vec<Word> = (0..n as u64).map(|i| i * 7919 % 1009).collect();
    let (bulk, _f1) = durable("bulk-load");
    let (words, _f2) = durable("word-load");
    let sb = SampleSort::new(&bulk, n);
    let sw = SampleSort::new(&words, n);
    assert_eq!(sb.input, sw.input, "same construction, same regions");
    sb.load_input(&bulk, &keys);
    for (i, k) in keys.iter().enumerate() {
        words.mem().store(sw.input.at(i), *k);
    }
    let (bulk_image, bulk_dirty) = image(&bulk);
    assert!(!bulk_dirty.is_empty());
    assert_eq!((bulk_image, bulk_dirty), image(&words));

    // A padded matrix loads row by row: only the rows' pages are dirty,
    // and the padding stays zero.
    let (a, b): (Vec<Word>, Vec<Word>) = ((1..=25).collect(), (2..=26).collect());
    let mb = MatMul::new(&bulk, 5);
    let mw = MatMul::new(&words, 5);
    mb.load_inputs(&bulk, &a, &b);
    for i in 0..5 {
        for j in 0..5 {
            words.mem().store(mw.a.at(i * 8 + j), a[i * 5 + j]);
            words.mem().store(mw.b.at(i * 8 + j), b[i * 5 + j]);
        }
    }
    assert_eq!(image(&bulk), image(&words));
    assert_eq!(mb.read_output(&bulk), vec![0; 25]);
}

/// With a write observer installed, a bulk load reports every word it
/// stores, once, with the word's previous value.
#[test]
fn an_observer_sees_every_word_of_a_bulk_load() {
    let n = 700;
    let keys: Vec<Word> = (0..n as u64).map(|i| i * 31 + 5).collect();
    let (m, _f) = durable("observed-load");
    let ss = SampleSort::new(&m, n);
    // One stale word, so a previous value other than zero is reported.
    m.mem().store(ss.input.at(3), 99);
    let seen: Arc<Mutex<Vec<(Addr, Word, Word)>>> = Arc::default();
    let log = seen.clone();
    m.mem().set_observer(Some(Arc::new(move |addr, prev, new| {
        log.lock().unwrap().push((addr, prev, new));
    })));
    ss.load_input(&m, &keys);
    m.mem().set_observer(None);
    let seen = seen.lock().unwrap();
    let want: Vec<(Addr, Word, Word)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (ss.input.at(i), if i == 3 { 99 } else { 0 }, *k))
        .collect();
    assert_eq!(*seen, want);
    assert_eq!(m.mem().to_vec(ss.input.start, n), keys);
}

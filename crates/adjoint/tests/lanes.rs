//! The one lane fan-out under `masc-sweep` and `masc-window`: every item
//! runs exactly once with its `base + i` index for every lane count, the
//! lowest failing index wins regardless of thread timing, and a panicking
//! lane becomes the caller's error instead of unwinding through the scope.

#![expect(clippy::disallowed_methods, reason = "sizes chosen by the test")]

use masc_adjoint::lanes::wave;
use std::sync::Mutex;

#[derive(Debug, PartialEq)]
enum Failure {
    At(usize),
    Panicked,
}

const ITEMS: usize = 7;
const BASE: usize = 10;

/// Every lane count worth distinguishing: inline (0, 1), fewer lanes than
/// items, exactly as many, and more than there are items.
const LANE_COUNTS: [usize; 6] = [0, 1, 2, 3, ITEMS, ITEMS + 5];

#[test]
fn every_item_runs_once_with_its_index() {
    for lanes in LANE_COUNTS {
        let mut items = vec![0usize; ITEMS];
        let visit = |idx: usize, item: &mut usize| -> Result<(), Failure> {
            *item += idx;
            Ok(())
        };
        wave(&mut items, BASE, lanes, Failure::Panicked, &visit).unwrap();
        let expected: Vec<usize> = (BASE..BASE + ITEMS).collect();
        assert_eq!(items, expected, "lanes = {lanes}");
    }
    let mut none: [usize; 0] = [];
    let never = |_: usize, _: &mut usize| Err(Failure::At(0));
    assert_eq!(wave(&mut none, 0, 4, Failure::Panicked, &never), Ok(()));
}

#[test]
fn lowest_failing_index_wins_for_every_lane_count() {
    for lanes in LANE_COUNTS {
        // Items 3 and 5 fail. Whenever they sit on different lanes, item 3
        // waits for item 5 to have failed first, so the *later* failure is
        // always the lower index.
        let effective = lanes.clamp(1, ITEMS);
        let apart = effective > 1 && 3 % effective != 5 % effective;
        let (failed_5, wait_5) = std::sync::mpsc::channel::<()>();
        let wait_5 = Mutex::new(wait_5);
        let fail = |idx: usize, _: &mut ()| match idx - BASE {
            3 => {
                if apart {
                    wait_5.lock().unwrap().recv().unwrap();
                }
                Err(Failure::At(idx))
            }
            5 => {
                failed_5.send(()).unwrap();
                Err(Failure::At(idx))
            }
            _ => Ok(()),
        };
        let mut items = [(); ITEMS];
        assert_eq!(
            wave(&mut items, BASE, lanes, Failure::Panicked, &fail),
            Err(Failure::At(BASE + 3)),
            "lanes = {lanes}"
        );
    }
}

#[test]
fn panicking_lane_becomes_the_callers_error() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut outcomes = Vec::new();
    for lanes in [2usize, 3, ITEMS] {
        let boom = |idx: usize, _: &mut ()| -> Result<(), Failure> {
            if idx == 4 {
                panic!("injected lane fault");
            }
            Ok(())
        };
        let mut items = [(); ITEMS];
        outcomes.push(wave(&mut items, 0, lanes, Failure::Panicked, &boom));

        // An item's own error outranks another lane's panic.
        let both = |idx: usize, _: &mut ()| match idx {
            4 => panic!("injected lane fault"),
            5 => Err(Failure::At(5)),
            _ => Ok(()),
        };
        outcomes.push(wave(&mut items, 0, lanes, Failure::Panicked, &both));
    }
    std::panic::set_hook(prev_hook);
    for pair in outcomes.chunks(2) {
        assert_eq!(pair[0], Err(Failure::Panicked));
        assert_eq!(pair[1], Err(Failure::At(5)));
    }
}

#!/usr/bin/env python
"""Materialized views maintained by transaction modification.

Section 7 of the paper: "transaction modification can be used for purposes
other than integrity control as well, like materialized view maintenance."
This example registers three views over the beer database — a selection
view and a join view, both refreshed by the per-trigger delta pieces the
integrity checks use too, and a count view, which has no delta rule and is
recomputed — and shows their maintenance programs riding along with every
transaction, coexisting with the paper's integrity rules R1/R2.

Run with:  python examples/materialized_views.py
"""

from repro import Session
from repro.algebra.pretty import render_program, render_transaction
from repro.views import ViewManager
from repro.workloads.beer import beer_controller, beer_database


def main() -> None:
    db = beer_database(beers=12, breweries=4, seed=11)
    controller = beer_controller()
    session = Session(db, controller)
    manager = ViewManager(db, controller)

    strong = manager.define_view("strong_beer", "select(beer, alcohol >= 7.0)")
    catalog = manager.define_view(
        "catalog",
        "project(join(beer, brewery, left.brewery = right.name), [1, 3, 6])",
    )
    count = manager.define_view("beer_count", "cnt(beer)")
    views = (strong, catalog, count)
    for view in views:
        print(f"defined {view}: {len(db.relation(view.name))} row(s)")
    print()

    for view in views:
        stored = controller.store.get(f"view::{view.name}")
        print(f"maintenance for {view.name} ({view.mode}):")
        if stored.differentials is None:
            print(render_program(stored.program, indent="    "))
        else:
            for trigger, piece in sorted(stored.differentials.items()):
                print(f"  on {trigger[0]}({trigger[1]}):")
                print(render_program(piece, indent="    "))
        print()

    transaction = session.transaction(
        'begin insert(beer, ("tripel_karmeliet", "tripel", "brewery_1", 8.4)); end'
    )
    modified = controller.modify_transaction(transaction)
    print("an insert transaction after modification — integrity checks,")
    print("compensation, and the views' INS(beer) maintenance appended:")
    print(render_transaction(modified))

    result = session.execute(transaction)
    print(f"\nexecution: {result}")
    print(f"strong_beer now: {db.relation('strong_beer').sorted_rows()}")
    print("views verified: " + ", ".join(
        f"{view.name}={manager.verify_view(view.name)}" for view in views
    ))

    # Views stay consistent through deletes and aborts alike.
    session.execute('begin delete(beer, where name = "tripel_karmeliet"); end')
    print(f"\nafter deleting it again: strong_beer = "
          f"{db.relation('strong_beer').sorted_rows()}")
    aborted = session.execute(
        'begin insert(beer, ("impossible", "ale", "brewery_1", -1.0)); end'
    )
    print(f"aborted transaction left views intact: {aborted.status.value}, "
          f"verified={all(manager.verify_view(view.name) for view in views)}")


if __name__ == "__main__":
    main()

"""Self-test set-up: import qvista from this checkout's src/."""

import run

run.use_checkout_source()

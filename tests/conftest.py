"""Suite-wide settings.

pytest's filterwarnings = ["error"] covers the test process only; the
commands the tests run as child processes inherit this environment, so a
warning fails them too.
"""

import os

os.environ["PYTHONWARNINGS"] = "error"

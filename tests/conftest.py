import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Pytest rewrites asserts only in test modules unless told otherwise;
# rewritten, the helpers' asserts are explicit raises that hold under -O.
pytest.register_assert_rewrite("helpers")

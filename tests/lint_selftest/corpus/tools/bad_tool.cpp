// Fixture: the number-parse rule covers tools/ as well as src/.
#include <cstdlib>

int main(int argc, char** argv) { return argc > 1 ? std::atoi(argv[1]) : 0; }

class Node:
    def charge(self, units):
        return units
